// Heavy-traffic benchmark for the batched routing service (DESIGN.md §15):
// replays a seeded synthetic traffic trace — a mix of fresh routing
// queries, exact repeats, and per-client session delta bursts — first
// through the paper's flow one query at a time (cold encode + solve per
// event), then through the RoutingService worker pool at each worker count
// in {1, hw}. Reports solves/sec, the queueing-included latency
// distribution (p50/p95/p99 off the service's log2 histograms), the cache
// hit ratios, and the warm-hit cost of a repeated query relative to its
// cold solve.
//
//   bench_service [out.json] [instance...]
//
// Every route response is checked against the instance's known verdict
// (SAT at W*, UNSAT at W*-1) and every session solve against its restored
// state; a contradiction flags the run and the binary exits nonzero.
//
// Environment knobs (besides the bench_util ones):
//   SATFR_BENCH_TRAFFIC    route-query count in the trace (default 64)
//   SATFR_SERVICE_WORKERS  top worker count (default: hardware threads)
//   SATFR_SERVICE_ARRIVAL  "burst" (default): submit everything, then
//                          drain; "paced": sleep ~200us between submits
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "flow/detailed_router.h"
#include "obs/metrics.h"
#include "service/cache.h"
#include "service/routing_service.h"

namespace {

using namespace satfr;

int TrafficCount() {
  if (const char* env = std::getenv("SATFR_BENCH_TRAFFIC")) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return 64;
}

int TopWorkerCount() {
  if (const char* env = std::getenv("SATFR_SERVICE_WORKERS")) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool PacedArrival() {
  const char* env = std::getenv("SATFR_SERVICE_ARRIVAL");
  return env != nullptr && std::string(env) == "paced";
}

// One trace event. Session bursts come as rip-up / restore / solve triples
// on the instance's dedicated client, so every session solve lands on the
// instance's original conflict graph (verdict: SAT at W*).
struct Event {
  enum Kind { kRoute, kRipUp, kReroute, kSolve } kind = kRoute;
  int instance = 0;
  int width = 0;                           // route / session solve
  graph::VertexId net = 0;                 // session deltas
  std::vector<graph::VertexId> partners;   // reroute restore set
};

// The seeded mix: ~45% fresh-or-repeat splits, ~55% exact repeats once
// history exists, and every 8th slot expands into a session triple. The
// same plan replays identically against the baseline and every service
// run.
std::vector<Event> PlanTraffic(const std::vector<bench::Instance>& instances,
                               int route_events, Rng& rng) {
  std::vector<Event> plan;
  std::vector<Event> route_history;
  int routes = 0;
  while (routes < route_events) {
    if (plan.size() % 8 == 7) {
      const int i = static_cast<int>(rng.NextBelow(instances.size()));
      const graph::Graph& g = instances[static_cast<std::size_t>(i)].conflict;
      if (g.num_vertices() > 0) {
        Event rip{Event::kRipUp, i, 0, 0, {}};
        rip.net = static_cast<graph::VertexId>(
            rng.NextBelow(static_cast<std::size_t>(g.num_vertices())));
        Event restore{Event::kReroute, i, 0, rip.net, g.Neighbors(rip.net)};
        Event solve{Event::kSolve, i,
                    instances[static_cast<std::size_t>(i)].min_width, 0, {}};
        plan.push_back(rip);
        plan.push_back(restore);
        plan.push_back(solve);
        continue;
      }
    }
    Event event;
    if (!route_history.empty() && rng.NextDouble() < 0.55) {
      event = route_history[rng.NextBelow(route_history.size())];
    } else {
      event.instance = static_cast<int>(rng.NextBelow(instances.size()));
      const bench::Instance& inst =
          instances[static_cast<std::size_t>(event.instance)];
      // W* and W*-1 in a 70/30 mix; W*-1 only when it stays >= 1.
      event.width = inst.min_width;
      if (inst.min_width > 1 && rng.NextDouble() < 0.30) {
        event.width = inst.min_width - 1;
      }
      route_history.push_back(event);
    }
    plan.push_back(event);
    ++routes;
  }
  return plan;
}

struct BaselineResult {
  double seconds = 0.0;
  // Cold (encode + solve) cost per route key, for the warm-hit ratio.
  std::vector<double> cold_seconds;  // indexed like `keys`
  std::vector<std::string> keys;
  bool equivalent = true;
  std::string first_mismatch;
};

std::string RouteKey(const std::vector<bench::Instance>& instances,
                     const Event& e) {
  return instances[static_cast<std::size_t>(e.instance)].name + "/W" +
         std::to_string(e.width);
}

sat::SolveResult ExpectedVerdict(const bench::Instance& inst, int width) {
  return width >= inst.min_width ? sat::SolveResult::kSat
                                 : sat::SolveResult::kUnsat;
}

// The paper's flow, one cold query per route event, on the calling thread.
// Session events cost the baseline nothing — the comparison charges the
// service for all its traffic but the baseline only for the solves.
BaselineResult RunBaseline(const std::vector<bench::Instance>& instances,
                           const std::vector<Event>& plan, double timeout) {
  BaselineResult out;
  flow::DetailedRouteOptions options;
  options.encoding = encode::GetEncoding("muldirect");
  options.heuristic = symmetry::Heuristic::kNone;
  options.timeout_seconds = timeout;
  Stopwatch wall;
  for (const Event& e : plan) {
    if (e.kind != Event::kRoute) continue;
    const bench::Instance& inst =
        instances[static_cast<std::size_t>(e.instance)];
    options.run_label = inst.name;
    Stopwatch query;
    const flow::DetailedRouteResult result =
        flow::RouteDetailedOnGraph(inst.conflict, e.width, options);
    const double cold = query.Seconds();
    const std::string key = RouteKey(instances, e);
    const auto it = std::find(out.keys.begin(), out.keys.end(), key);
    if (it == out.keys.end()) {
      out.keys.push_back(key);
      out.cold_seconds.push_back(cold);
    }
    const sat::SolveResult expected = ExpectedVerdict(inst, e.width);
    if (result.status != sat::SolveResult::kUnknown &&
        result.status != expected && out.first_mismatch.empty()) {
      out.equivalent = false;
      out.first_mismatch = key + ": baseline " +
                           sat::ToString(result.status) + " != expected " +
                           sat::ToString(expected);
    }
  }
  out.seconds = wall.Seconds();
  return out;
}

struct ServiceRunResult {
  int workers = 0;
  double seconds = 0.0;
  double solves_per_sec = 0.0;
  std::uint64_t verdict_lookups = 0;
  std::uint64_t verdict_hits = 0;
  std::uint64_t latency_p50_us = 0;
  std::uint64_t latency_p95_us = 0;
  std::uint64_t latency_p99_us = 0;
  std::uint64_t apply_p50_us = 0;
  bool equivalent = true;
  std::string first_mismatch;
};

ServiceRunResult RunService(const std::vector<bench::Instance>& instances,
                            const std::vector<Event>& plan, int workers,
                            double timeout, bool paced) {
  obs::MetricsRegistry registry;
  service::ServiceOptions options;
  options.scheduler.num_workers = workers;
  options.timeout_seconds = timeout;
  options.metrics = &registry;
  service::RoutingService svc(options);

  // Graphs are shared across events; sessions open outside the timed
  // region (their one-time encode is the price of admission, not traffic).
  std::vector<std::shared_ptr<const graph::Graph>> graphs;
  for (const bench::Instance& inst : instances) {
    graphs.push_back(std::make_shared<graph::Graph>(inst.conflict));
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const int max_width =
        std::max(instances[i].dsatur_width, instances[i].min_width);
    std::string error;
    if (!svc.OpenSession("bench-" + instances[i].name, graphs[i], max_width,
                         "muldirect", "none", &error)) {
      std::fprintf(stderr, "bench: session for '%s' failed: %s\n",
                   instances[i].name.c_str(), error.c_str());
      std::exit(1);
    }
  }

  ServiceRunResult out;
  out.workers = svc.num_workers();
  std::vector<service::RoutingService::Ticket> tickets;
  tickets.reserve(plan.size());
  Stopwatch wall;
  for (const Event& e : plan) {
    const bench::Instance& inst =
        instances[static_cast<std::size_t>(e.instance)];
    const std::string client = "bench-" + inst.name;
    switch (e.kind) {
      case Event::kRoute: {
        service::RouteRequest request;
        request.label = inst.name;
        request.graph = graphs[static_cast<std::size_t>(e.instance)];
        request.width = e.width;
        request.encoding = "muldirect";
        request.symmetry = "none";
        tickets.push_back(svc.Submit(std::move(request)));
        break;
      }
      case Event::kRipUp:
        tickets.push_back(svc.SubmitRipUp(client, e.net));
        break;
      case Event::kReroute:
        tickets.push_back(svc.SubmitReroute(client, e.net, e.partners));
        break;
      case Event::kSolve:
        tickets.push_back(svc.SubmitSessionSolve(client, e.width));
        break;
    }
    if (paced) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::size_t routes = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const service::Response& r = svc.Wait(tickets[i]);
    const Event& e = plan[i];
    const bench::Instance& inst =
        instances[static_cast<std::size_t>(e.instance)];
    if (!r.ok) {
      std::fprintf(stderr, "bench: event %zu (%s): %s\n", i,
                   inst.name.c_str(), r.error.c_str());
      std::exit(1);
    }
    if (e.kind == Event::kRoute || e.kind == Event::kSolve) {
      if (e.kind == Event::kRoute) ++routes;
      const sat::SolveResult expected = ExpectedVerdict(inst, e.width);
      if (r.status != sat::SolveResult::kUnknown && r.status != expected &&
          out.first_mismatch.empty()) {
        out.equivalent = false;
        out.first_mismatch = RouteKey(instances, e) + " event " +
                             std::to_string(i) + ": service " +
                             sat::ToString(r.status) + " != expected " +
                             sat::ToString(expected);
      }
    }
  }
  out.seconds = wall.Seconds();
  out.solves_per_sec =
      out.seconds > 0.0 ? static_cast<double>(routes) / out.seconds : 0.0;

  const service::ServiceStats stats = svc.stats();
  out.verdict_lookups = stats.verdicts.lookups;
  out.verdict_hits = stats.verdicts.hits;
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  if (const obs::MetricSnapshot* h = snapshot.Find("service.latency_us")) {
    out.latency_p50_us = h->ApproxPercentile(0.50);
    out.latency_p95_us = h->ApproxPercentile(0.95);
    out.latency_p99_us = h->ApproxPercentile(0.99);
  }
  if (const obs::MetricSnapshot* h = snapshot.Find("service.apply_us")) {
    out.apply_p50_us = h->ApproxPercentile(0.50);
  }
  return out;
}

// Warm-hit cost: the service already holds the verdict for `key`; a repeat
// must cost < 5% of the cold (encode + solve) time. Each cold solve runs on
// a fresh service, so it can only be a miss; the warm repeats then ask the
// last of those services, so they can only be hits. Medians over several
// of each keep one preempted sample from deciding the ratio.
constexpr int kColdSolves = 3;
constexpr int kWarmRepeats = 15;

struct WarmHit {
  std::string key;
  double cold_seconds = 0.0;  // median of kColdSolves
  double warm_seconds = 0.0;  // median of kWarmRepeats
  double ratio = 0.0;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

WarmHit MeasureWarmHit(const std::vector<bench::Instance>& instances,
                       const BaselineResult& baseline, double timeout) {
  // The slowest cold key gives the ratio the most headroom to be honest.
  std::size_t slowest = 0;
  for (std::size_t i = 1; i < baseline.cold_seconds.size(); ++i) {
    if (baseline.cold_seconds[i] > baseline.cold_seconds[slowest]) {
      slowest = i;
    }
  }
  const std::string key = baseline.keys[slowest];
  const std::size_t slash = key.rfind("/W");
  const std::string name = key.substr(0, slash);
  const int width = std::atoi(key.c_str() + slash + 2);
  const bench::Instance* inst = nullptr;
  for (const bench::Instance& candidate : instances) {
    if (candidate.name == name) inst = &candidate;
  }

  service::ServiceOptions options;
  options.scheduler.num_workers = 1;
  options.timeout_seconds = timeout;
  auto graph = std::make_shared<graph::Graph>(inst->conflict);
  auto request = [&]() {
    service::RouteRequest r;
    r.label = inst->name;
    r.graph = graph;
    r.width = width;
    r.encoding = "muldirect";
    r.symmetry = "none";
    return r;
  };
  WarmHit out;
  out.key = key;
  std::unique_ptr<service::RoutingService> svc;
  std::vector<double> cold;
  for (int i = 0; i < kColdSolves; ++i) {
    svc = std::make_unique<service::RoutingService>(options);
    Stopwatch cold_watch;
    svc->Wait(svc->Submit(request()));
    cold.push_back(cold_watch.Seconds());
  }
  std::vector<double> warm;
  for (int i = 0; i < kWarmRepeats; ++i) {
    Stopwatch warm_watch;
    const service::Response r = svc->Wait(svc->Submit(request()));
    warm.push_back(warm_watch.Seconds());
    if (!r.verdict_hit) {
      std::fprintf(stderr, "bench: warm repeat of %s missed the cache\n",
                   key.c_str());
      std::exit(1);
    }
  }
  out.cold_seconds = Median(std::move(cold));
  out.warm_seconds = Median(std::move(warm));
  out.ratio = out.cold_seconds > 0.0 ? out.warm_seconds / out.cold_seconds
                                     : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_pr10.json";
  std::vector<std::string> names;
  for (int i = 2; i < argc; ++i) names.emplace_back(argv[i]);
  if (names.empty()) names = bench::BenchInstanceNames();
  const int route_events = TrafficCount();
  const double timeout = bench::BenchTimeoutSeconds();
  const int top_workers = TopWorkerCount();
  const bool paced = PacedArrival();

  std::vector<bench::Instance> instances;
  for (const std::string& name : names) {
    instances.push_back(bench::LoadInstance(name));
  }
  Rng rng(0x5E41CEULL);
  const std::vector<Event> plan = PlanTraffic(instances, route_events, rng);
  std::size_t session_events = 0;
  for (const Event& e : plan) session_events += e.kind != Event::kRoute;
  std::printf("Service traffic: %d route quer%s + %zu session op(s) over "
              "%zu instance(s), %s arrival (timeout %.0fs)\n\n",
              route_events, route_events == 1 ? "y" : "ies", session_events,
              instances.size(), paced ? "paced" : "burst", timeout);

  const BaselineResult baseline = RunBaseline(instances, plan, timeout);
  std::printf("sequential baseline: %d quer%s in %.3fs (%.1f solves/s), "
              "%zu unique key(s)\n",
              route_events, route_events == 1 ? "y" : "ies",
              baseline.seconds,
              baseline.seconds > 0.0 ? route_events / baseline.seconds : 0.0,
              baseline.keys.size());

  std::vector<int> worker_counts = {1};
  if (top_workers > 1) worker_counts.push_back(top_workers);
  const bench::TablePrinter table({8, 9, 11, 10, 10, 10, 10});
  table.Row({"workers", "seconds", "solves/s", "hit%", "p50us", "p95us",
             "p99us"});
  table.Separator();
  std::vector<ServiceRunResult> runs;
  for (const int workers : worker_counts) {
    runs.push_back(RunService(instances, plan, workers, timeout, paced));
    const ServiceRunResult& r = runs.back();
    char cell[32];
    std::snprintf(cell, sizeof cell, "%.1f%%",
                  r.verdict_lookups > 0
                      ? 100.0 * static_cast<double>(r.verdict_hits) /
                            static_cast<double>(r.verdict_lookups)
                      : 0.0);
    table.Row({std::to_string(r.workers),
               std::to_string(r.seconds).substr(0, 7),
               std::to_string(r.solves_per_sec).substr(0, 9),
               std::string(cell), std::to_string(r.latency_p50_us),
               std::to_string(r.latency_p95_us),
               std::to_string(r.latency_p99_us)});
  }
  table.Separator();

  const ServiceRunResult& best = runs.back();
  const double speedup =
      best.seconds > 0.0 ? baseline.seconds / best.seconds : 0.0;
  const WarmHit warm = MeasureWarmHit(instances, baseline, timeout);
  const double hit_ratio =
      best.verdict_lookups > 0
          ? static_cast<double>(best.verdict_hits) /
                static_cast<double>(best.verdict_lookups)
          : 0.0;
  std::printf("batched vs sequential: %.2fx; warm repeat of %s: median "
              "%.0fus vs %.0fus cold (%.1f%% — target < 5%%)\n",
              speedup, warm.key.c_str(), warm.warm_seconds * 1e6,
              warm.cold_seconds * 1e6, warm.ratio * 100.0);

  bool equivalent = baseline.equivalent;
  std::string first_mismatch = baseline.first_mismatch;
  for (const ServiceRunResult& r : runs) {
    if (!r.equivalent && first_mismatch.empty()) {
      first_mismatch = r.first_mismatch;
    }
    equivalent = equivalent && r.equivalent;
  }

  obs::JsonObject doc;
  doc.emplace_back("bench", obs::JsonValue(std::string("service")));
  doc.emplace_back("route_events", obs::JsonValue(route_events));
  doc.emplace_back("session_events",
                   obs::JsonValue(static_cast<std::uint64_t>(session_events)));
  doc.emplace_back("arrival", obs::JsonValue(std::string(
                                  paced ? "paced" : "burst")));
  doc.emplace_back(
      "hardware_concurrency",
      obs::JsonValue(static_cast<std::uint64_t>(
          std::max(1u, std::thread::hardware_concurrency()))));
  doc.emplace_back("timeout_seconds", obs::JsonValue(timeout));
  doc.emplace_back("sequential_seconds", obs::JsonValue(baseline.seconds));
  doc.emplace_back("speedup_vs_sequential", obs::JsonValue(speedup));
  doc.emplace_back("verdict_hit_ratio", obs::JsonValue(hit_ratio));
  doc.emplace_back("equivalent", obs::JsonValue(equivalent));
  if (!first_mismatch.empty()) {
    doc.emplace_back("first_mismatch", obs::JsonValue(first_mismatch));
  }
  obs::JsonObject warm_obj;
  warm_obj.emplace_back("key", obs::JsonValue(warm.key));
  warm_obj.emplace_back("cold_seconds", obs::JsonValue(warm.cold_seconds));
  warm_obj.emplace_back("warm_seconds", obs::JsonValue(warm.warm_seconds));
  warm_obj.emplace_back("ratio", obs::JsonValue(warm.ratio));
  doc.emplace_back("warm_hit", obs::JsonValue(std::move(warm_obj)));
  obs::JsonArray scaling;
  for (const ServiceRunResult& r : runs) {
    obs::JsonObject o;
    o.emplace_back("workers", obs::JsonValue(r.workers));
    o.emplace_back("service_seconds", obs::JsonValue(r.seconds));
    o.emplace_back("solves_per_sec", obs::JsonValue(r.solves_per_sec));
    o.emplace_back("verdict_hits", obs::JsonValue(r.verdict_hits));
    o.emplace_back("verdict_lookups", obs::JsonValue(r.verdict_lookups));
    o.emplace_back("latency_p50_us", obs::JsonValue(r.latency_p50_us));
    o.emplace_back("latency_p95_us", obs::JsonValue(r.latency_p95_us));
    o.emplace_back("latency_p99_us", obs::JsonValue(r.latency_p99_us));
    o.emplace_back("apply_p50_us", obs::JsonValue(r.apply_p50_us));
    scaling.emplace_back(std::move(o));
  }
  doc.emplace_back("scaling", obs::JsonValue(std::move(scaling)));
  if (!bench::WriteJsonReport(out_path, obs::JsonValue(std::move(doc)))) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!equivalent) {
    std::fprintf(stderr, "bench: verdict mismatch, first at %s\n",
                 first_mismatch.c_str());
    return 1;
  }
  return 0;
}
