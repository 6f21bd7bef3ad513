// Functional tests for src/service: the verdict cache and its keys, the
// job scheduler, the routing service end-to-end (a miss matches the direct
// flow, repeats hit, kUnknown never cached, tickets are released), per-client
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
#include "common/rng.h"
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
  const auto g = std::make_shared<const graph::Graph>(Triangle());
  const CacheKey base{g, 1234, 4, "muldirect", "none", "siege"};
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
}

TEST(CacheKey, ToStringNamesTheInstance) {
  const CacheKey key{nullptr, 0xabc, 7, "muldirect", "s1", "siege"};
  const std::string s = key.ToString();
  EXPECT_NE(s.find("W7"), std::string::npos) << s;
  EXPECT_NE(s.find("muldirect"), std::string::npos) << s;
  EXPECT_NE(s.find("siege"), std::string::npos) << s;
}

// --- sharded LRU -----------------------------------------------------------

CacheKey KeyW(int width) {
  return CacheKey{nullptr, 99, width, "e", "s", ""};
}

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

TEST(ShardedLruCache, DistinctGraphsUnderOneFingerprintNeverAlias) {
  // A forged shared fingerprint: the triangle at W=2 is UNSAT, the
  // edgeless graph at W=2 is SAT, so an alias would be a wrong answer.
  ShardedLruCache<int> cache(CacheTierOptions{1, 4, 1u << 20});
  const auto triangle = std::make_shared<const graph::Graph>(Triangle());
  const auto edgeless = std::make_shared<const graph::Graph>(3);
  const CacheKey cached{triangle, 7, 2, "e", "s", ""};
  const CacheKey probe{edgeless, 7, 2, "e", "s", ""};
  ASSERT_EQ(cached.Hash(), probe.Hash());
  EXPECT_FALSE(cached == probe);

  cache.Insert(cached, std::make_shared<const int>(1), 1);
  EXPECT_EQ(cache.Lookup(probe), nullptr);
  // The colliding insert leaves the resident answer alone.
  cache.Insert(probe, std::make_shared<const int>(2), 1);
  EXPECT_EQ(cache.Lookup(probe), nullptr);
  const auto resident = cache.Lookup(cached);
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(*resident, 1);
  EXPECT_FALSE(cache.Erase(probe));
}

TEST(ShardedLruCache, StructurallyEqualGraphsStillHit) {
  ShardedLruCache<int> cache(CacheTierOptions{1, 4, 1u << 20});
  graph::Graph reordered(3);  // the triangle, edges added in another order
  reordered.AddEdge(2, 0);
  reordered.AddEdge(2, 1);
  reordered.AddEdge(1, 0);
  const auto a = std::make_shared<const graph::Graph>(Triangle());
  const auto b = std::make_shared<const graph::Graph>(reordered);
  const CacheKey key_a{a, FingerprintGraph(*a), 3, "e", "s", ""};
  const CacheKey key_b{b, FingerprintGraph(*b), 3, "e", "s", ""};
  EXPECT_TRUE(key_a == key_b);

  cache.Insert(key_a, std::make_shared<const int>(5), 1);
  const auto v = cache.Lookup(key_b);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 5);
}

// --- scheduler -------------------------------------------------------------

TEST(JobScheduler, RunsEveryJobExactlyOnce) {
  SchedulerOptions options;
  options.num_workers = 2;
  JobScheduler scheduler(options);
  std::vector<std::atomic<int>> runs(64);
  for (std::atomic<int>& count : runs) {
    scheduler.Submit(
        [&count](const mc::Atomic<bool>&) { count.fetch_add(1); });
  }
  scheduler.WaitIdle();
  for (const std::atomic<int>& count : runs) EXPECT_EQ(count.load(), 1);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 64u);
  EXPECT_EQ(stats.completed, 64u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.steals, 0u);
}

// Holds one worker until `release` is raised; returns once the blocker is
// running, so jobs submitted afterwards are queued behind it. The blocker
// touches `started` only before this function can return.
void HoldOneWorker(JobScheduler& scheduler, std::atomic<bool>& release) {
  std::atomic<bool> started{false};
  scheduler.Submit([&started, &release](const mc::Atomic<bool>&) {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
}

// A job body that appends `tag` to `order`.
JobScheduler::JobFn Record(std::mutex& order_mutex, std::vector<int>& order,
                           int tag) {
  return [&order_mutex, &order, tag](const mc::Atomic<bool>&) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(tag);
  };
}

TEST(JobScheduler, HigherPriorityRunsFirstOnOneWorker) {
  SchedulerOptions options;
  options.num_workers = 1;
  JobScheduler scheduler(options);
  std::atomic<bool> release{false};
  HoldOneWorker(scheduler, release);
  std::mutex order_mutex;
  std::vector<int> order;
  scheduler.Submit(Record(order_mutex, order, 0), /*priority=*/0);
  scheduler.Submit(Record(order_mutex, order, 9), /*priority=*/9);
  scheduler.Submit(Record(order_mutex, order, 5), /*priority=*/5);
  release.store(true);
  scheduler.WaitIdle();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 9);
  EXPECT_EQ(order[1], 5);
  EXPECT_EQ(order[2], 0);
}

TEST(JobScheduler, EqualPriorityRunsInSubmissionOrder) {
  SchedulerOptions options;
  options.num_workers = 1;
  JobScheduler scheduler(options);
  std::atomic<bool> release{false};
  HoldOneWorker(scheduler, release);
  std::mutex order_mutex;
  std::vector<int> order;
  for (int tag = 1; tag <= 3; ++tag) {
    scheduler.Submit(Record(order_mutex, order, tag), /*priority=*/0);
  }
  release.store(true);
  scheduler.WaitIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(JobScheduler, QueuedJobsRunOnAnIdleWorker) {
  SchedulerOptions options;
  options.num_workers = 2;
  JobScheduler scheduler(options);
  std::atomic<bool> release{false};
  HoldOneWorker(scheduler, release);
  std::atomic<int> finished{0};
  for (int i = 0; i < 4; ++i) {
    scheduler.Submit(
        [&finished](const mc::Atomic<bool>&) { finished.fetch_add(1); });
  }
  // The free worker must run all four while the other stays held; the
  // deadline turns a job stuck behind the blocker into a failure, not a
  // hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (finished.load() < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(finished.load(), 4);
  release.store(true);
  scheduler.WaitIdle();
  EXPECT_EQ(finished.load(), 4);
}

TEST(JobScheduler, CancelBeforeRunMeansNeverRuns) {
  SchedulerOptions options;
  options.num_workers = 1;
  JobScheduler scheduler(options);
  std::atomic<bool> release{false};
  HoldOneWorker(scheduler, release);
  std::atomic<bool> ran{false};
  const auto doomed = scheduler.Submit(
      [&ran](const mc::Atomic<bool>&) { ran.store(true); });
  EXPECT_TRUE(scheduler.Cancel(doomed));
  EXPECT_FALSE(scheduler.Cancel(doomed));  // already gone from the queue
  release.store(true);
  scheduler.WaitIdle();
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(scheduler.stats().cancelled, 1u);
  EXPECT_EQ(scheduler.stats().completed, 1u);  // the blocker only
}

TEST(JobScheduler, CancelWhileRunningSetsTheStopFlag) {
  SchedulerOptions options;
  options.num_workers = 1;
  JobScheduler scheduler(options);
  std::atomic<bool> started{false};
  const auto handle =
      scheduler.Submit([&started](const mc::Atomic<bool>& stop) {
        started.store(true);
        while (!stop.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      });
  while (!started.load()) std::this_thread::yield();
  EXPECT_FALSE(scheduler.Cancel(handle));  // too late to prevent the run
  // The body returns only once it sees the stop flag.
  scheduler.WaitIdle();
  EXPECT_EQ(scheduler.stats().completed, 1u);
  EXPECT_EQ(scheduler.stats().cancelled, 0u);
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

  const Response& warm = svc.Wait(svc.Submit(TriangleRequest(g, 2)));
  EXPECT_EQ(warm.status, sat::SolveResult::kUnsat);
  EXPECT_TRUE(warm.verdict_hit);

  svc.Wait(svc.Submit(TriangleRequest(g, 3)));
  const Response& warm_sat = svc.Wait(svc.Submit(TriangleRequest(g, 3)));
  EXPECT_EQ(warm_sat.status, sat::SolveResult::kSat);
  EXPECT_TRUE(warm_sat.verdict_hit);
  EXPECT_TRUE(g->IsProperColoring(warm_sat.tracks, 3));

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.verdicts.hits, 2u);
}

TEST(RoutingService, EqualGraphFromAFreshPointerHitsButADifferentOneMisses) {
  ServiceOptions options;
  options.scheduler.num_workers = 1;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(TriangleLadder());
  ASSERT_EQ(svc.Wait(svc.Submit(TriangleRequest(g, 2))).status,
            sat::SolveResult::kUnsat);

  const auto copy = std::make_shared<const graph::Graph>(TriangleLadder());
  const Response& repeat = svc.Wait(svc.Submit(TriangleRequest(copy, 2)));
  EXPECT_TRUE(repeat.verdict_hit);
  EXPECT_EQ(repeat.status, sat::SolveResult::kUnsat);

  // Same vertex count and width, but a path: 2-colorable, so it must be
  // solved, not answered from the ladder's entry.
  graph::Graph path(8);
  for (graph::VertexId i = 0; i + 1 < 8; ++i) path.AddEdge(i, i + 1);
  const Response& other = svc.Wait(svc.Submit(
      TriangleRequest(std::make_shared<const graph::Graph>(path), 2)));
  EXPECT_FALSE(other.verdict_hit);
  EXPECT_EQ(other.status, sat::SolveResult::kSat);
}

TEST(RoutingService, SolverPresetReAskIsAFreshlyEncodedMiss) {
  ServiceOptions options;
  options.scheduler.num_workers = 1;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(TriangleLadder());

  svc.Wait(svc.Submit(TriangleRequest(g, 3)));  // cold: caches the verdict
  RouteRequest other = TriangleRequest(g, 3);
  other.solver = "minisat";
  const Response& r = svc.Wait(svc.Submit(other));
  EXPECT_EQ(r.status, sat::SolveResult::kSat);
  EXPECT_FALSE(r.verdict_hit);  // different verdict key
  EXPECT_TRUE(g->IsProperColoring(r.tracks, 3));
  EXPECT_GT(r.encode_seconds, 0.0);  // encoded again, streamed
  EXPECT_EQ(svc.stats().verdicts.entries, 2u);
}

// A seeded random graph, big enough that the model picks among many
// colorings, so identical tracks mean the solver saw the same formula.
graph::Graph RandomGraph(int vertices, int edges, std::uint64_t seed) {
  graph::Graph g(vertices);
  Rng rng(seed);
  while (g.num_edges() < static_cast<std::size_t>(edges)) {
    const auto u = static_cast<graph::VertexId>(rng.NextBelow(vertices));
    const auto v = static_cast<graph::VertexId>(rng.NextBelow(vertices));
    if (u != v) g.AddEdge(u, v);
  }
  return g;
}

TEST(RoutingService, ColdMissMatchesDirectFlowExactly) {
  const auto g =
      std::make_shared<const graph::Graph>(RandomGraph(40, 200, 7));
  for (const char* encoding : {"muldirect", "ITE-linear-2+muldirect"}) {
    for (const char* preset : {"siege", "minisat"}) {
      flow::DetailedRouteOptions direct;
      direct.encoding = encode::GetEncoding(encoding);
      direct.heuristic = symmetry::Heuristic::kS1;
      direct.solver = *sat::FindSolverPreset(preset);
      // The smallest SAT width W; W-1 is then UNSAT.
      int width = 1;
      while (flow::RouteDetailedOnGraph(*g, width, direct).status !=
             sat::SolveResult::kSat) {
        ++width;
      }
      ASSERT_GE(width, 2);
      for (const int w : {width - 1, width}) {
        const flow::DetailedRouteResult expected =
            flow::RouteDetailedOnGraph(*g, w, direct);
        RoutingService svc;  // fresh: the request can only be a cold miss
        RouteRequest request;
        request.graph = g;
        request.width = w;
        request.encoding = encoding;
        request.symmetry = "s1";
        request.solver = preset;
        const Response r = svc.Wait(svc.Submit(std::move(request)));
        SCOPED_TRACE(std::string(encoding) + "/" + preset + "/W" +
                     std::to_string(w));
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_FALSE(r.verdict_hit);
        EXPECT_EQ(r.status, expected.status);
        EXPECT_EQ(r.tracks, expected.tracks);
      }
    }
  }
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

TEST(RoutingService, WaitReleasesItsTicket) {
  ServiceOptions options;
  options.scheduler.num_workers = 2;
  RoutingService svc(options);
  const auto g = std::make_shared<const graph::Graph>(TriangleLadder());
  std::string error;
  ASSERT_TRUE(svc.OpenSession("c", g, 3, "muldirect", "none", &error))
      << error;
  for (int i = 0; i < 1000; ++i) {
    const RoutingService::Ticket ticket =
        i % 4 == 3 ? svc.SubmitSessionSolve("c", 3)
                   : svc.Submit(TriangleRequest(g, 2 + i % 2));
    ASSERT_TRUE(svc.Wait(ticket).ok);
  }
  EXPECT_EQ(svc.stats().tickets_held, 0u);

  // A collected ticket is gone: Wait answers "invalid ticket" and Cancel
  // finds nothing to cancel.
  const RoutingService::Ticket ticket = svc.Submit(TriangleRequest(g, 3));
  EXPECT_EQ(svc.stats().tickets_held, 1u);
  EXPECT_TRUE(svc.Wait(ticket).ok);
  const Response again = svc.Wait(ticket);
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.error, "invalid ticket");
  EXPECT_FALSE(svc.Cancel(ticket));
  EXPECT_EQ(svc.stats().tickets_held, 0u);
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
