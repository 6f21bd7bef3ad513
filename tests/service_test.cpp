// Functional tests for src/service: the cache tiers and their keys, the
// job scheduler, the routing service end-to-end (verdict equivalence with
// the direct flow, all three hit paths, kUnknown never cached), per-client
// sessions, and the service-cache-coherence satlint pass.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pass.h"
#include "analysis/runner.h"
#include "flow/detailed_router.h"
#include "graph/graph.h"
#include "service/cache.h"
#include "service/routing_service.h"
#include "service/scheduler.h"

namespace satfr::service {
namespace {

graph::Graph Triangle() {
  graph::Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  return g;
}

// A 2x4 "ladder" of triangles: chromatic number 3, a few more vertices so
// route times are nonzero but tiny.
graph::Graph TriangleLadder() {
  graph::Graph g(8);
  for (graph::VertexId i = 0; i + 2 < 8; ++i) {
    g.AddEdge(i, i + 1);
    g.AddEdge(i, i + 2);
  }
  return g;
}

// --- fingerprint and keys --------------------------------------------------

TEST(FingerprintGraph, StableAcrossIdenticalGraphs) {
  EXPECT_EQ(FingerprintGraph(Triangle()), FingerprintGraph(Triangle()));
  EXPECT_NE(FingerprintGraph(Triangle()), 0u);
}

TEST(FingerprintGraph, SensitiveToEdgesAndVertexCount) {
  graph::Graph path(3);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  EXPECT_NE(FingerprintGraph(Triangle()), FingerprintGraph(path));

  graph::Graph padded = Triangle();
  padded.AddVertex();  // same edges, one extra isolated vertex
  EXPECT_NE(FingerprintGraph(Triangle()), FingerprintGraph(padded));
}

TEST(CacheKey, HashAndEqualitySeparateEveryField) {
  const CacheKey base{1234, 4, "muldirect", "none", "siege"};
  CacheKey other = base;
  EXPECT_TRUE(base == other);
  EXPECT_EQ(base.Hash(), other.Hash());

  other.width = 5;
  EXPECT_FALSE(base == other);
  EXPECT_NE(base.Hash(), other.Hash());

  other = base;
  other.solver = "minisat";
  EXPECT_FALSE(base == other);
  EXPECT_NE(base.Hash(), other.Hash());

  other = base;
  other.solver.clear();  // the instance-tier spelling of the same instance
  EXPECT_NE(base.Hash(), other.Hash());
}

TEST(CacheKey, ToStringNamesTheInstance) {
  const CacheKey key{0xabc, 7, "muldirect", "s1", "siege"};
  const std::string s = key.ToString();
  EXPECT_NE(s.find("W7"), std::string::npos) << s;
  EXPECT_NE(s.find("muldirect"), std::string::npos) << s;
  EXPECT_NE(s.find("siege"), std::string::npos) << s;
}

// --- seqlock slot and summary table ---------------------------------------

TEST(SeqlockedSlot, NeverPublishedReadsFalse) {
  SeqlockedSlot<VerdictSummary> slot;
  VerdictSummary out;
  EXPECT_FALSE(slot.TryRead(&out));
}

TEST(SeqlockedSlot, RoundTripsAndOverwrites) {
  SeqlockedSlot<VerdictSummary> slot;
  VerdictSummary in;
  in.key_hash = 42;
  in.status = 2;
  in.width = 9;
  in.cold_solve_seconds = 1.5;
  slot.Publish(in);
  VerdictSummary out;
  ASSERT_TRUE(slot.TryRead(&out));
  EXPECT_EQ(out.key_hash, 42u);
  EXPECT_EQ(out.status, 2);
  EXPECT_EQ(out.width, 9);
  EXPECT_DOUBLE_EQ(out.cold_solve_seconds, 1.5);

  in.key_hash = 43;
  in.width = 11;
  slot.Publish(in);
  ASSERT_TRUE(slot.TryRead(&out));
  EXPECT_EQ(out.key_hash, 43u);
  EXPECT_EQ(out.width, 11);
}

TEST(VerdictSummaryTable, ProbeMatchesOnlyItsKeyHash) {
  VerdictSummaryTable table(/*slots=*/4);
  EXPECT_EQ(table.num_slots(), 4u);
  VerdictSummary out;
  EXPECT_FALSE(table.Probe(21, &out));

  VerdictSummary in;
  in.key_hash = 21;
  in.status = 1;
  table.Publish(in);
  ASSERT_TRUE(table.Probe(21, &out));
  EXPECT_EQ(out.key_hash, 21u);

  // Same slot (21 % 4 == 25 % 4), different key: the hash check rejects.
  EXPECT_FALSE(table.Probe(25, &out));
  in.key_hash = 25;
  table.Publish(in);
  EXPECT_TRUE(table.Probe(25, &out));
  EXPECT_FALSE(table.Probe(21, &out));  // overwritten by the collision
}

// --- sharded LRU -----------------------------------------------------------

CacheKey KeyW(int width) { return CacheKey{99, width, "e", "s", ""}; }

TEST(ShardedLruCache, LookupPromotesAndCountsHits) {
  CacheTierOptions options{/*num_shards=*/1, /*max_entries_per_shard=*/4,
                           /*max_bytes_per_shard=*/1u << 20};
  ShardedLruCache<int> cache(options);
  EXPECT_EQ(cache.Lookup(KeyW(1)), nullptr);
  cache.Insert(KeyW(1), std::make_shared<const int>(10), 8);
  std::uint64_t hits = 0;
  const auto v = cache.Lookup(KeyW(1), &hits);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 10);
  EXPECT_EQ(hits, 1u);
  cache.Lookup(KeyW(1), &hits);
  EXPECT_EQ(hits, 2u);

  const CacheTierStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 8u);
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsedOnEntryBound) {
  CacheTierOptions options{1, /*max_entries_per_shard=*/2, 1u << 20};
  ShardedLruCache<int> cache(options);
  cache.Insert(KeyW(1), std::make_shared<const int>(1), 1);
  cache.Insert(KeyW(2), std::make_shared<const int>(2), 1);
  cache.Lookup(KeyW(1));  // promote 1; 2 becomes the LRU victim
  cache.Insert(KeyW(3), std::make_shared<const int>(3), 1);
  EXPECT_NE(cache.Lookup(KeyW(1)), nullptr);
  EXPECT_EQ(cache.Lookup(KeyW(2)), nullptr);
  EXPECT_NE(cache.Lookup(KeyW(3)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedLruCache, EvictsOnByteBoundButKeepsOneEntry) {
  CacheTierOptions options{1, /*max_entries_per_shard=*/8,
                           /*max_bytes_per_shard=*/100};
  ShardedLruCache<int> cache(options);
  cache.Insert(KeyW(1), std::make_shared<const int>(1), 60);
  cache.Insert(KeyW(2), std::make_shared<const int>(2), 60);  // 120 > 100
  EXPECT_EQ(cache.Lookup(KeyW(1)), nullptr);
  EXPECT_NE(cache.Lookup(KeyW(2)), nullptr);

  // A single oversized entry stays resident: the bound never empties the
  // shard below one entry.
  cache.Insert(KeyW(3), std::make_shared<const int>(3), 500);
  EXPECT_NE(cache.Lookup(KeyW(3)), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ShardedLruCache, RefreshInPlaceAndErase) {
  ShardedLruCache<int> cache(CacheTierOptions{1, 4, 1u << 20});
  cache.Insert(KeyW(1), std::make_shared<const int>(1), 10);
  cache.Insert(KeyW(1), std::make_shared<const int>(7), 20);
  const auto v = cache.Lookup(KeyW(1));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 7);
  EXPECT_EQ(cache.stats().insertions, 1u);  // refresh is not an insert
  EXPECT_EQ(cache.stats().bytes, 20u);

  EXPECT_TRUE(cache.Erase(KeyW(1)));
  EXPECT_FALSE(cache.Erase(KeyW(1)));
  EXPECT_EQ(cache.Lookup(KeyW(1)), nullptr);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ShardedLruCache, SampleIsDeterministicAndBounded) {
  ShardedLruCache<int> cache(CacheTierOptions{4, 16, 1u << 20});
  for (int i = 0; i < 12; ++i) {
    cache.Insert(KeyW(i), std::make_shared<const int>(i), 1);
  }
  const auto a = cache.Sample(5, /*seed=*/7);
  const auto b = cache.Sample(5, /*seed=*/7);
  ASSERT_EQ(a.size(), 5u);
  ASSERT_EQ(b.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].key == b[i].key);
  }
  EXPECT_EQ(cache.Sample(100, 7).size(), 12u);
}

// --- scheduler -------------------------------------------------------------

TEST(JobScheduler, RunsEveryJobExactlyOnce) {
  SchedulerOptions options;
  options.num_workers = 2;
  JobScheduler scheduler(options);
  std::atomic<int> ran{0};
  std::vector<JobScheduler::Handle> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(scheduler.Submit(
        [&ran](const mc::Atomic<bool>&) { ran.fetch_add(1); }));
  }
  scheduler.WaitIdle();
  EXPECT_EQ(ran.load(), 64);
  for (const auto& handle : handles) {
    EXPECT_EQ(scheduler.StatusOf(handle), JobStatus::kDone);
  }
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 64u);
  EXPECT_EQ(stats.completed, 64u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST(JobScheduler, HigherPriorityRunsFirstOnOneWorker) {
  SchedulerOptions options;
  options.num_workers = 1;
  JobScheduler scheduler(options);

  // Hold the single worker on a blocker so the next three jobs are drained
  // from the inbox together, then released in priority order. They are
  // submitted only once the blocker runs: a job submitted earlier could be
  // drained in the blocker's batch and run ahead of the later ones.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  const auto blocker =
      scheduler.Submit([&started, &release](const mc::Atomic<bool>&) {
        started.store(true);
        while (!release.load()) std::this_thread::yield();
      });
  while (!started.load()) std::this_thread::yield();
  std::mutex order_mutex;
  std::vector<int> order;
  auto record = [&](int tag) {
    return [&order_mutex, &order, tag](const mc::Atomic<bool>&) {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    };
  };
  scheduler.Submit(record(0), /*priority=*/0);
  scheduler.Submit(record(9), /*priority=*/9);
  scheduler.Submit(record(5), /*priority=*/5);
  release.store(true);
  scheduler.Wait(blocker);
  scheduler.WaitIdle();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 9);
  EXPECT_EQ(order[1], 5);
  EXPECT_EQ(order[2], 0);
}

TEST(JobScheduler, CancelBeforeRunMeansNeverRuns) {
  SchedulerOptions options;
  options.num_workers = 1;
  JobScheduler scheduler(options);
  std::atomic<bool> release{false};
  const auto blocker =
      scheduler.Submit([&release](const mc::Atomic<bool>&) {
        while (!release.load()) std::this_thread::yield();
      });
  std::atomic<bool> ran{false};
  const auto doomed = scheduler.Submit(
      [&ran](const mc::Atomic<bool>&) { ran.store(true); });
  EXPECT_TRUE(scheduler.Cancel(doomed));
  EXPECT_FALSE(scheduler.Cancel(doomed));  // second cancel lost the CAS
  release.store(true);
  EXPECT_EQ(scheduler.Wait(doomed), JobStatus::kCancelled);
  scheduler.WaitIdle();
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(scheduler.stats().cancelled, 1u);
}

TEST(JobScheduler, CancelWhileRunningSetsTheStopFlag) {
  SchedulerOptions options;
  options.num_workers = 1;
  JobScheduler scheduler(options);
  std::atomic<bool> started{false};
  const auto handle =
      scheduler.Submit([&started](const mc::Atomic<bool>& cancel) {
        started.store(true);
        while (!cancel.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      });
  while (!started.load()) std::this_thread::yield();
  EXPECT_FALSE(scheduler.Cancel(handle));  // too late to prevent the run
  EXPECT_EQ(scheduler.Wait(handle), JobStatus::kDone);
}

// --- routing service end-to-end -------------------------------------------

RouteRequest TriangleRequest(const std::shared_ptr<const graph::Graph>& g,
                             int width) {
  RouteRequest request;
  request.label = "triangle";
  request.graph = g;
  request.width = width;
  request.encoding = "muldirect";
  request.symmetry = "none";
  return request;
}

TEST(RoutingService, MatchesDirectFlowOnBothVerdicts) {
  ServiceOptions options;
  options.scheduler.num_workers = 2;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(Triangle());

  flow::DetailedRouteOptions direct;
  direct.encoding = encode::GetEncoding("muldirect");
  direct.heuristic = symmetry::Heuristic::kNone;
  const flow::DetailedRouteResult sat3 =
      flow::RouteDetailedOnGraph(*g, 3, direct);
  const flow::DetailedRouteResult unsat2 =
      flow::RouteDetailedOnGraph(*g, 2, direct);
  ASSERT_EQ(sat3.status, sat::SolveResult::kSat);
  ASSERT_EQ(unsat2.status, sat::SolveResult::kUnsat);

  const Response& r3 = svc.Wait(svc.Submit(TriangleRequest(g, 3)));
  EXPECT_TRUE(r3.ok) << r3.error;
  EXPECT_EQ(r3.status, sat::SolveResult::kSat);
  ASSERT_EQ(r3.tracks.size(), 3u);
  // The tracks must be a proper 3-coloring of the triangle.
  EXPECT_NE(r3.tracks[0], r3.tracks[1]);
  EXPECT_NE(r3.tracks[1], r3.tracks[2]);
  EXPECT_NE(r3.tracks[0], r3.tracks[2]);

  const Response& r2 = svc.Wait(svc.Submit(TriangleRequest(g, 2)));
  EXPECT_EQ(r2.status, sat::SolveResult::kUnsat);
  EXPECT_TRUE(r2.tracks.empty());
}

TEST(RoutingService, RepeatQueriesHitTheVerdictTiers) {
  ServiceOptions options;
  options.scheduler.num_workers = 1;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(TriangleLadder());

  const Response& cold = svc.Wait(svc.Submit(TriangleRequest(g, 2)));
  ASSERT_EQ(cold.status, sat::SolveResult::kUnsat);
  EXPECT_FALSE(cold.verdict_hit);

  // UNSAT repeat: served by the lock-free summary front.
  const Response& warm = svc.Wait(svc.Submit(TriangleRequest(g, 2)));
  EXPECT_EQ(warm.status, sat::SolveResult::kUnsat);
  EXPECT_TRUE(warm.verdict_hit);
  EXPECT_TRUE(warm.summary_hit);

  // SAT repeat: tracks live only in the locked tier.
  svc.Wait(svc.Submit(TriangleRequest(g, 3)));
  const Response& warm_sat = svc.Wait(svc.Submit(TriangleRequest(g, 3)));
  EXPECT_EQ(warm_sat.status, sat::SolveResult::kSat);
  EXPECT_TRUE(warm_sat.verdict_hit);
  EXPECT_FALSE(warm_sat.summary_hit);
  EXPECT_FALSE(warm_sat.tracks.empty());

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_GE(stats.verdicts.hits + stats.summary_hits, 2u);
}

TEST(RoutingService, SolverPresetChangesVerdictKeyButSharesInstance) {
  ServiceOptions options;
  options.scheduler.num_workers = 1;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(TriangleLadder());

  svc.Wait(svc.Submit(TriangleRequest(g, 3)));  // cold: fills both tiers
  RouteRequest other = TriangleRequest(g, 3);
  other.solver = "minisat";
  const Response& r = svc.Wait(svc.Submit(other));
  EXPECT_EQ(r.status, sat::SolveResult::kSat);
  EXPECT_FALSE(r.verdict_hit);   // different verdict key
  EXPECT_TRUE(r.instance_hit);   // same encoded CNF
  EXPECT_EQ(svc.stats().instances.entries, 1u);
}

TEST(RoutingService, MalformedRequestsSettleAsErrors) {
  RoutingService svc;
  RouteRequest no_graph;
  no_graph.width = 3;
  const Response& r1 = svc.Wait(svc.Submit(std::move(no_graph)));
  EXPECT_FALSE(r1.ok);
  EXPECT_FALSE(r1.error.empty());

  const auto g = std::make_shared<const graph::Graph>(Triangle());
  RouteRequest bad_sym = TriangleRequest(g, 3);
  bad_sym.symmetry = "not-a-heuristic";
  const Response& r2 = svc.Wait(svc.Submit(std::move(bad_sym)));
  EXPECT_FALSE(r2.ok);

  RouteRequest bad_enc = TriangleRequest(g, 3);
  bad_enc.encoding = "not-an-encoding";
  const Response& r3 = svc.Wait(svc.Submit(std::move(bad_enc)));
  EXPECT_FALSE(r3.ok);
  // Nothing broken was cached.
  EXPECT_EQ(svc.stats().verdicts.entries, 0u);
}

TEST(RoutingService, UnknownVerdictsAreNeverCached) {
  ServiceOptions options;
  options.scheduler.num_workers = 1;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(TriangleLadder());
  RouteRequest request = TriangleRequest(g, 3);
  request.timeout_seconds = 1e-9;  // expire before the solver can finish
  const Response& r = svc.Wait(svc.Submit(std::move(request)));
  if (r.status == sat::SolveResult::kUnknown) {
    EXPECT_EQ(svc.stats().verdicts.insertions, 0u);
    EXPECT_EQ(svc.stats().verdicts.entries, 0u);
  } else {
    // Machine beat a nanosecond budget; the decided answer may be cached.
    EXPECT_EQ(r.status, sat::SolveResult::kSat);
  }
}

TEST(RoutingService, BatchSubmitSettlesEveryTicket) {
  ServiceOptions options;
  options.scheduler.num_workers = 2;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(TriangleLadder());
  std::vector<RouteRequest> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back(TriangleRequest(g, i % 2 == 0 ? 3 : 2));
  }
  const std::vector<RoutingService::Ticket> tickets =
      svc.SubmitBatch(std::move(batch));
  ASSERT_EQ(tickets.size(), 12u);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const Response& r = svc.Wait(tickets[i]);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status, i % 2 == 0 ? sat::SolveResult::kSat
                                   : sat::SolveResult::kUnsat);
  }
  svc.Drain();
}

// --- sessions --------------------------------------------------------------

TEST(RoutingService, SessionOpsApplyInOrderAndMatchTheGraph) {
  ServiceOptions options;
  options.scheduler.num_workers = 2;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(Triangle());
  std::string error;
  ASSERT_TRUE(svc.OpenSession("client-a", g, /*max_width=*/3, "muldirect",
                              "none", &error))
      << error;
  EXPECT_TRUE(svc.HasSession("client-a"));
  EXPECT_FALSE(svc.HasSession("client-b"));

  // Rip net 0 out: the remaining edge {1,2} is 2-colorable.
  const auto t1 = svc.SubmitRipUp("client-a", 0);
  const auto t2 = svc.SubmitSessionSolve("client-a", 2);
  // Bring it back against both others: 2 tracks are too few again.
  const auto t3 = svc.SubmitReroute("client-a", 0, {1, 2});
  const auto t4 = svc.SubmitSessionSolve("client-a", 2);
  const auto t5 = svc.SubmitSessionSolve("client-a", 3);

  const Response& rip = svc.Wait(t1);
  EXPECT_TRUE(rip.ok) << rip.error;
  EXPECT_EQ(rip.kind, RequestKind::kSessionRipUp);
  const Response& sat_without = svc.Wait(t2);
  EXPECT_EQ(sat_without.status, sat::SolveResult::kSat);
  ASSERT_EQ(sat_without.tracks.size(), 3u);
  EXPECT_EQ(sat_without.tracks[0], -1);  // inactive net
  const Response& back = svc.Wait(t3);
  EXPECT_TRUE(back.ok) << back.error;
  EXPECT_EQ(svc.Wait(t4).status, sat::SolveResult::kUnsat);
  const Response& full = svc.Wait(t5);
  EXPECT_EQ(full.status, sat::SolveResult::kSat);

  EXPECT_EQ(svc.stats().session_ops, 5u);
  EXPECT_EQ(svc.stats().sessions_open, 1u);
  svc.CloseSession("client-a");
  EXPECT_FALSE(svc.HasSession("client-a"));
}

TEST(RoutingService, SessionOpWithoutSessionSettlesAsError) {
  RoutingService svc;
  const Response& r = svc.Wait(svc.SubmitRipUp("nobody", 0));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("nobody"), std::string::npos) << r.error;
}

TEST(RoutingService, SessionSolveWidthZeroUsesMaxWidth) {
  RoutingService svc;
  const auto g = std::make_shared<const graph::Graph>(Triangle());
  ASSERT_TRUE(svc.OpenSession("c", g, /*max_width=*/3, "muldirect", "none"));
  const Response& r = svc.Wait(svc.SubmitSessionSolve("c", 0));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, sat::SolveResult::kSat);
}

// --- coherence sampling and the satlint pass -------------------------------

TEST(RoutingService, SampleCoherenceAgreesWithFreshSolves) {
  ServiceOptions options;
  options.scheduler.num_workers = 1;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(Triangle());
  svc.Wait(svc.Submit(TriangleRequest(g, 3)));
  svc.Wait(svc.Submit(TriangleRequest(g, 2)));

  const std::vector<analysis::CoherenceSample> samples =
      svc.SampleCoherence(8);
  ASSERT_EQ(samples.size(), 2u);
  for (const analysis::CoherenceSample& sample : samples) {
    EXPECT_EQ(sample.cached_verdict, sample.fresh_verdict) << sample.key;
    if (sample.tracks_checked) EXPECT_TRUE(sample.tracks_valid);
  }

  analysis::AnalysisInput input;
  input.coherence_samples = &samples;
  const analysis::AnalysisReport report =
      analysis::MakeDefaultRunner().Run(input);
  EXPECT_EQ(report.Count(analysis::Severity::kError), 0u)
      << analysis::FormatText(report);
}

TEST(ServiceCoherencePass, FlagsDisagreementsAndBadTracks) {
  std::vector<analysis::CoherenceSample> samples(3);
  samples[0].key = "g1/W3";
  samples[0].cached_verdict = "SAT";
  samples[0].fresh_verdict = "UNSAT";  // the bug the pass exists for
  samples[1].key = "g1/W4";
  samples[1].cached_verdict = "SAT";
  samples[1].fresh_verdict = "SAT";
  samples[1].tracks_checked = true;
  samples[1].tracks_valid = false;  // cached tracks are not a coloring
  samples[2].key = "g1/W5";
  samples[2].cached_verdict = "UNSAT";
  samples[2].fresh_verdict = "UNKNOWN";  // re-solve timed out: no verdict

  analysis::AnalysisInput input;
  input.coherence_samples = &samples;
  const analysis::AnalysisReport report =
      analysis::MakeDefaultRunner().Run(input);
  EXPECT_EQ(report.Count(analysis::Severity::kError), 2u)
      << analysis::FormatText(report);

  bool saw_disagreement = false;
  bool saw_bad_tracks = false;
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.pass != "service-cache-coherence") continue;
    saw_disagreement |= d.location == "g1/W3";
    saw_bad_tracks |= d.location == "g1/W4";
  }
  EXPECT_TRUE(saw_disagreement);
  EXPECT_TRUE(saw_bad_tracks);
}

TEST(ServiceCoherencePass, NotApplicableWithoutSamples) {
  const analysis::AnalysisReport report =
      analysis::MakeDefaultRunner().Run(analysis::AnalysisInput{});
  for (const analysis::PassOutcome& outcome : report.outcomes) {
    if (outcome.pass == "service-cache-coherence") EXPECT_FALSE(outcome.ran);
  }
}

}  // namespace
}  // namespace satfr::service
