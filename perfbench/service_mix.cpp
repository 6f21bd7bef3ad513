// service_mix: one service::RoutingService with 3 workers, driven by one
// client thread as a batched closed loop (SubmitBatch, then Wait on every
// ticket). Each pass starts a fresh service and runs the same seeded batch
// plan over the eight Table-2 circuits. 26% of the requests are exact
// repeats of requests settled in an earlier batch, one per batch re-asks a
// settled instance under the other solver preset (verdict miss,
// instance-tier hit), and the rest are cold.
//
// Cache outcomes are planned, not left to thread timing: a repeat only
// names a request settled in an earlier batch, the distinct working set
// (39 keys) stays far below the verdict tier's 8 x 256 entries, and every
// pass asserts that the verdict hits equal the planned repeats.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "service/routing_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using satfr::sat::SolveResult;

constexpr int kWorkers = 3;
constexpr std::size_t kBatches = 8;
// 2 repeats to 5 misses a batch. The median request is then a miss, well
// inside the miss cluster: hits take microseconds and their latency is
// mostly thread wake-up jitter, and a median on the hit/miss boundary jumps
// between the two clusters from run to run.
constexpr std::size_t kRepeatsPerBatch = 2;
constexpr double kTailPct = 90.0;  // 53 requests a pass, 5+ passes
constexpr int kMinPasses = 5;
constexpr double kTimeoutSeconds = 60.0;

/// One planned request. `kind` records what the cache should do with it.
enum class Kind { kCold, kRepeat, kOtherPreset };

struct Planned {
  std::size_t circuit = 0;
  int width = 0;
  const char* symmetry = "s1";
  const char* solver = "siege";
  Kind kind = Kind::kCold;
};

/// The batch plan. Cold keys are (Table-2 circuit, W*-1 or W*, s1 or b1)
/// under siege, dealt round-robin so every batch gets four from different
/// circuits. Every later batch also re-asks the first settled key it has not
/// re-asked yet under minisat, then repeats settled requests drawn by the
/// seed; repeats go first in the batch. The cold work and its placement
/// are the same for every seed, so only the choice of repeats varies.
std::vector<std::vector<Planned>> Plan(const std::vector<Circuit>& corpus,
                                       std::uint64_t seed) {
  std::vector<Planned> cold;
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    for (const int width : {corpus[c].wstar - 1, corpus[c].wstar}) {
      for (const char* sym : {"s1", "b1"}) {
        cold.push_back({c, width, sym, "siege", Kind::kCold});
      }
    }
  }
  satfr::Rng rng(seed);
  std::vector<std::vector<Planned>> batches(kBatches);
  std::vector<Planned> settled;
  for (std::size_t b = 0; b < kBatches; ++b) {
    std::vector<Planned>& batch = batches[b];
    if (b > 0) {
      for (std::size_t i = 0; i < kRepeatsPerBatch; ++i) {
        Planned p = settled[rng.NextBelow(settled.size())];
        p.kind = Kind::kRepeat;
        batch.push_back(p);
      }
    }
    for (std::size_t i = b; i < cold.size(); i += kBatches) {
      batch.push_back(cold[i]);
    }
    if (b > 0) {
      Planned p = cold[b - 1];
      p.solver = "minisat";
      p.kind = Kind::kOtherPreset;
      batch.push_back(p);
    }
    for (const Planned& p : batch) {
      if (p.kind != Kind::kRepeat) settled.push_back(p);
    }
  }
  return batches;
}

/// Everything one pass measured.
struct PassResult {
  double seconds = 0.0;
  Samples latency_ms;
  Samples batch_ms;
  Samples queue_ms, miss_encode_ms, miss_solve_ms, hit_us;
  SatTotals sat;  // solve times only: a Response carries no solver counters
  std::size_t requests = 0, verdict_hits = 0, planned_repeats = 0;
  satfr::service::ServiceStats stats;
};

PassResult RunPass(const std::vector<Circuit>& corpus,
                   const std::vector<std::shared_ptr<const satfr::graph::Graph>>&
                       graphs,
                   const std::vector<std::vector<Planned>>& plan,
                   bool cache_verdicts, bool cache_instances, Tracer* tracer,
                   int pass_index, Outcome* out) {
  satfr::obs::MetricsRegistry registry;
  satfr::service::ServiceOptions options;
  options.scheduler.num_workers = kWorkers;
  options.cache_verdicts = cache_verdicts;
  options.cache_instances = cache_instances;
  options.timeout_seconds = kTimeoutSeconds;
  options.metrics = &registry;
  satfr::service::RoutingService service(options);

  PassResult result;
  const double start = NowMs();
  std::size_t index = 0;
  for (const std::vector<Planned>& batch : plan) {
    const std::uint64_t qid = QueryId(pass_index, index);
    ScopedSpan batch_span(tracer, "service.batch", qid);
    const double batch_start = NowMs();
    std::vector<satfr::service::RouteRequest> requests;
    for (const Planned& p : batch) {
      satfr::service::RouteRequest r;
      r.label = corpus[p.circuit].name;
      r.graph = graphs[p.circuit];
      r.width = p.width;
      r.encoding = "muldirect";
      r.symmetry = p.symmetry;
      r.solver = p.solver;
      requests.push_back(std::move(r));
      result.planned_repeats += p.kind == Kind::kRepeat ? 1 : 0;
    }
    std::vector<satfr::service::RoutingService::Ticket> tickets;
    {
      ScopedSpan span(tracer, "service.submit", qid);
      tickets = service.SubmitBatch(std::move(requests));
    }
    ScopedSpan wait_span(tracer, "service.wait", qid);
    for (std::size_t i = 0; i < batch.size(); ++i, ++index) {
      const satfr::service::Response& r = service.Wait(tickets[i]);
      const Planned& p = batch[i];
      result.latency_ms.Add(r.latency_seconds * 1e3);
      result.queue_ms.Add(
          (r.latency_seconds - r.encode_seconds - r.solve_seconds) * 1e3);
      if (tracer != nullptr && !r.verdict_hit) {
        // Worker time, as a share of the three workers' capacity: a third
        // of each returned encode and solve time is charged to the client's
        // wait, which keeps the rest as service (queueing, hits, hand-off).
        const double now = NowMs();
        const double encode_ms = r.encode_seconds * 1e3 / kWorkers;
        tracer->Returned("encode.emit", now, encode_ms);
        tracer->Returned("sat.solve", now + encode_ms,
                         r.solve_seconds * 1e3 / kWorkers);
      }
      if (r.verdict_hit) {
        ++result.verdict_hits;
        result.hit_us.Add(r.latency_seconds * 1e6);
      } else {
        if (!r.instance_hit) result.miss_encode_ms.Add(r.encode_seconds * 1e3);
        result.miss_solve_ms.Add(r.solve_seconds * 1e3);
        result.sat.AddSolve(r.status, r.solve_seconds);
      }
      out->Count(r.ok ? CheckAnswer(corpus[p.circuit], p.width, r.status,
                                    r.tracks)
                      : corpus[p.circuit].name + ": " + r.error);
    }
    result.batch_ms.Add(NowMs() - batch_start);
  }
  result.seconds = (NowMs() - start) / 1e3;
  result.requests = index;
  result.stats = service.stats();
  if (cache_verdicts && result.verdict_hits != result.planned_repeats) {
    out->Count("verdict hits " + std::to_string(result.verdict_hits) +
               " != planned repeats " +
               std::to_string(result.planned_repeats));
  }
  return result;
}

}  // namespace

Outcome RunServiceMix(const Args& args) {
  Outcome out;
  Samples setup_s;
  std::vector<Circuit> corpus;
  const std::string error =
      TimedCorpus(satfr::netlist::Table2BenchmarkNames(), {}, 0, args.seed,
                  SetupRepeats(args), &setup_s, &corpus);
  if (!error.empty()) {
    out.Count("set-up: " + error);
    return out;
  }
  std::vector<std::shared_ptr<const satfr::graph::Graph>> graphs;
  for (const Circuit& c : corpus) {
    graphs.push_back(std::make_shared<const satfr::graph::Graph>(c.graph));
  }
  const std::vector<std::vector<Planned>> plan = Plan(corpus, args.seed);

  int pass_index = 0;
  Samples latency_ms;
  auto full_pass = [&](Tracer* tracer) {
    PassResult r = RunPass(corpus, graphs, plan, true, true, tracer,
                           pass_index++, &out);
    latency_ms.Append(r.latency_ms);
    return r;
  };
  if (!args.trace) {
    std::size_t per_pass = 0;
    for (const std::vector<Planned>& batch : plan) per_pass += batch.size();
    const Passes passes = RunPasses(
        args.seconds, kMinPasses, [&] { return full_pass(nullptr).seconds; });
    AddEndToEnd(&out, setup_s, passes, per_pass,
                passes.seconds.Percentile(50), "median pass", latency_ms,
                "raw samples", latency_ms, "raw samples", kTailPct);
    return out;
  }

  const PassResult untraced = full_pass(nullptr);
  Tracer tracer;
  const PassResult traced = full_pass(&tracer);
  const PassResult untraced_after = full_pass(nullptr);
  // Each ablation arm: requests a pass over the median of kMinPasses passes.
  auto arm_qps = [&](bool cache_verdicts, bool cache_instances) {
    Samples pass_s;
    std::size_t requests = 0;
    for (int i = 0; i < kMinPasses; ++i) {
      const PassResult r = RunPass(corpus, graphs, plan, cache_verdicts,
                                   cache_instances, nullptr, pass_index++, &out);
      pass_s.Add(r.seconds);
      requests = r.requests;
    }
    return static_cast<double>(requests) / pass_s.Percentile(50);
  };
  const PassResult& u = untraced;
  out.Add("service.queue_ms", u.queue_ms.Mean(), "ms",
          "latency minus encode and solve, per request");
  out.Add("service.miss_encode_ms", u.miss_encode_ms.Mean(), "ms",
          "cold encode, n=" + std::to_string(u.miss_encode_ms.size()));
  out.Add("service.miss_solve_ms", u.miss_solve_ms.Mean(), "ms",
          "verdict misses, n=" + std::to_string(u.miss_solve_ms.size()));
  out.Add("service.hit_us", u.hit_us.Percentile(50), "us",
          "median verdict-hit latency incl. queueing, n=" +
              std::to_string(u.hit_us.size()));
  out.Add("service.verdict_hit_ratio",
          static_cast<double>(u.verdict_hits) / static_cast<double>(u.requests),
          "ratio",
          std::to_string(u.verdict_hits) + " hits = " +
              std::to_string(u.planned_repeats) + " planned repeats");
  out.Add("service.summary_hits", static_cast<double>(u.stats.summary_hits),
          "count", "per pass");
  out.Add("service.instance_hits", static_cast<double>(u.stats.instances.hits),
          "count", "per pass");
  out.Add("service.steals", static_cast<double>(u.stats.scheduler.steals),
          "count", "per pass");
  out.Add("service.batch_ms", u.batch_ms.Mean(), "ms", "per batch");
  out.Add("service.qps_full", arm_qps(true, true), "1/s",
          "both cache tiers on, median of 5 passes");
  out.Add("service.qps_no_instance_tier", arm_qps(true, false), "1/s",
          "cache_instances=false, median of 5 passes");
  out.Add("service.qps_no_cache", arm_qps(false, false), "1/s",
          "cache_verdicts=false, cache_instances=false, median of 5 passes");
  out.Add("encode.ms", u.miss_encode_ms.Mean(), "ms",
          "cold misses, from Response::encode_seconds");
  AddSatMetrics(&out, u.sat, u.miss_solve_ms.size());
  AddTraceMetrics(&out, tracer, traced.seconds * 1e3,
                  (u.seconds + untraced_after.seconds) * 1e3 / 2,
                  TracePath(args));
  out.notes.push_back(
      "coverage: service.batch/submit/wait spans on the client thread; "
      "encode and sat from each Response's encode and solve times divided "
      "by the 3 workers, as children of service.wait; queue times from the "
      "Response");
  return out;
}

}  // namespace perfbench
