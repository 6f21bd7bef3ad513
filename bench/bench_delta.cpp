// Delta-latency benchmark for the incremental RoutingSession (DESIGN.md
// §14): replays a seeded synthetic rip-up/re-route trace on each MCNC
// instance twice — once through a long-lived session (assumption flips on a
// resident solver) and once through the paper's flow (fresh extract +
// encode + solve per query) — and reports per-delta latency distributions.
// The headline ratio compares the work the session eliminates: applying a
// delta (group emission) vs the fresh flow's symmetry-coloring + encode of
// the same mutated netlist; the solve columns show the search cost both
// flows still pay.
//
//   bench_delta [out.json] [instance...]
//
// With no instances the SATFR_BENCH_SET suite is used. SATFR_BENCH_DELTAS
// overrides the per-instance event count (default 24). Every pair of runs
// is also checked for verdict equivalence: the session and the fresh flow
// must agree on SAT/UNSAT after every delta, or the report flags the
// instance and the binary exits nonzero.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "flow/detailed_router.h"
#include "flow/routing_session.h"

namespace {

using namespace satfr;

int DeltaCount() {
  if (const char* env = std::getenv("SATFR_BENCH_DELTAS")) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return 24;
}

double PercentileMs(std::vector<double> seconds, double p) {
  if (seconds.empty()) return 0.0;
  std::sort(seconds.begin(), seconds.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(seconds.size() - 1) + 0.5);
  return seconds[std::min(rank, seconds.size() - 1)] * 1e3;
}

// Per-delta samples, split the way the two flows actually differ: applying
// a delta (the session's group emission) replaces the fresh flow's
// symmetry-coloring + encode; both then pay a solver descent. The headline
// ratio — and the CI gate — compares what the session eliminated
// (apply vs fresh encode); the solve columns show the common search cost.
struct InstanceResult {
  std::string name;
  int width = 0;
  int deltas = 0;
  std::vector<double> apply_seconds;         // session: rip/reroute emission
  std::vector<double> session_solve_seconds; // session: resident-solver solve
  std::vector<double> fresh_encode_seconds;  // fresh: coloring + encode
  std::vector<double> fresh_solve_seconds;   // fresh: cold-solver solve
  bool equivalent = true;
  /// First delta index where session and fresh verdicts disagreed; -1 when
  /// the instance stayed equivalent. Surfaced in the JSON report and the
  /// final error so a CI failure names the exact reproducer.
  int first_mismatch_delta = -1;
  std::string mismatch_detail;  // "session SAT != fresh UNSAT"
  flow::SessionStats stats;
};

// A planned synthetic delta. Planning happens OUTSIDE the timed region —
// the benchmark times only what a real router would pay per move: the
// session's apply + solve against the fresh flow's extract-equivalent
// encode + solve on the same mutated netlist.
struct DeltaEvent {
  bool rip_only = false;
  graph::VertexId net = -1;
  std::vector<graph::VertexId> partners;  // ignored when rip_only
};

// Three event kinds keep the edge set moving in both directions: rip a net
// out entirely, re-route an active net with one conflict dropped, or bring
// a ripped net back against a random sample of active nets.
DeltaEvent PlanRandomDelta(const flow::RoutingSession& session, Rng& rng) {
  const int n = session.num_nets();
  const graph::Graph current = session.ActiveConflictGraph();
  std::vector<graph::VertexId> active;
  std::vector<graph::VertexId> inactive;
  for (graph::VertexId v = 0; v < n; ++v) {
    (session.NetActive(v) ? active : inactive).push_back(v);
  }
  DeltaEvent event;
  const double roll = rng.NextDouble();
  if (!inactive.empty() && roll < 0.25) {
    // Revive a ripped net against up to 4 random active partners.
    event.net = inactive[rng.NextBelow(inactive.size())];
    for (const std::uint32_t i : rng.Permutation(
             static_cast<std::uint32_t>(active.size()))) {
      event.partners.push_back(active[i]);
      if (event.partners.size() == 4) break;
    }
  } else if (active.size() > 1 && roll < 0.5) {
    event.rip_only = true;
    event.net = active[rng.NextBelow(active.size())];
  } else {
    // Re-route with one conflict dropped: the common RRR move.
    event.net = active[rng.NextBelow(active.size())];
    event.partners = current.Neighbors(event.net);
    if (!event.partners.empty()) {
      event.partners.erase(event.partners.begin() +
                           static_cast<std::ptrdiff_t>(
                               rng.NextBelow(event.partners.size())));
    }
  }
  return event;
}

InstanceResult RunInstance(const std::string& name, int deltas,
                           double timeout) {
  const bench::Instance inst = bench::LoadInstance(name);
  InstanceResult out;
  out.name = name;
  out.width = inst.min_width;
  out.deltas = deltas;

  flow::RoutingSessionOptions session_options;
  session_options.encoding = encode::GetEncoding("ITE-linear-2+muldirect");
  session_options.heuristic = symmetry::Heuristic::kS1;
  session_options.timeout_seconds = timeout;
  session_options.run_label = name;
  const int max_width = std::max(inst.dsatur_width, inst.min_width);
  flow::RoutingSession session(inst.conflict, max_width, session_options);
  if (!session.ok()) {
    std::fprintf(stderr, "bench: session for '%s' failed: %s\n",
                 name.c_str(), session.error().c_str());
    std::exit(1);
  }
  session.Solve(inst.min_width);  // warm the resident solver once

  flow::DetailedRouteOptions fresh_options;
  fresh_options.encoding = session_options.encoding;
  fresh_options.heuristic = session_options.heuristic;
  fresh_options.timeout_seconds = timeout;
  fresh_options.run_label = name;

  Rng rng(StableHash64(name) ^ 0xD617A5ULL);
  for (int d = 0; d < deltas; ++d) {
    const DeltaEvent event = PlanRandomDelta(session, rng);
    Stopwatch apply_watch;
    const bool applied = event.rip_only
                             ? session.RipUp(event.net)
                             : session.Reroute(event.net, event.partners);
    out.apply_seconds.push_back(apply_watch.Seconds());
    const flow::SessionSolveResult incremental =
        session.Solve(inst.min_width);
    out.session_solve_seconds.push_back(incremental.solve_seconds);
    if (!applied) {
      std::fprintf(stderr, "bench: '%s' delta %d: %s\n", name.c_str(), d,
                   session.error().c_str());
      std::exit(1);
    }
    if (!incremental.error.empty()) {
      std::fprintf(stderr, "bench: '%s' delta %d: %s\n", name.c_str(), d,
                   incremental.error.c_str());
      std::exit(1);
    }

    // The paper's flow answers the same query from scratch. The mutated
    // graph is materialized outside the timed region — the fresh flow is
    // charged for coloring + encode (what the session's delta replaces)
    // plus its own cold solve.
    const graph::Graph mutated = session.ActiveConflictGraph();
    const flow::DetailedRouteResult fresh = flow::RouteDetailedOnGraph(
        mutated, inst.min_width, fresh_options);
    out.fresh_encode_seconds.push_back(fresh.coloring_seconds +
                                       fresh.encode_seconds);
    out.fresh_solve_seconds.push_back(fresh.solve_seconds);
    if (incremental.status != fresh.status) {
      std::fprintf(stderr,
                   "bench: '%s' delta %d: session %s != fresh %s\n",
                   name.c_str(), d, sat::ToString(incremental.status),
                   sat::ToString(fresh.status));
      out.equivalent = false;
      if (out.first_mismatch_delta < 0) {
        out.first_mismatch_delta = d;
        out.mismatch_detail = std::string("session ") +
                              sat::ToString(incremental.status) +
                              " != fresh " + sat::ToString(fresh.status);
      }
    }
  }
  out.stats = session.session_stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_pr9.json";
  std::vector<std::string> names;
  for (int i = 2; i < argc; ++i) names.emplace_back(argv[i]);
  if (names.empty()) names = bench::BenchInstanceNames();
  const int deltas = DeltaCount();
  const double timeout = bench::BenchTimeoutSeconds();

  std::printf("Incremental session vs fresh encode, %d deltas/instance "
              "(timeout %.0fs)\n\n", deltas, timeout);
  const bench::TablePrinter table({10, 5, 11, 11, 11, 11, 8, 8, 6});
  table.Row({"circuit", "W*", "delta p50", "delta p99", "enc p50",
             "enc p99", "ratio", "total", "equiv"});
  table.Separator();

  obs::JsonArray instances;
  bool all_equivalent = true;
  bool all_fast = true;
  std::string first_mismatch;  // "instance:delta (detail)" of the first one
  for (const std::string& name : names) {
    const InstanceResult r = RunInstance(name, deltas, timeout);
    const double apply_p50 = PercentileMs(r.apply_seconds, 0.50);
    const double apply_p99 = PercentileMs(r.apply_seconds, 0.99);
    const double session_solve_p50 =
        PercentileMs(r.session_solve_seconds, 0.50);
    const double fresh_encode_p50 =
        PercentileMs(r.fresh_encode_seconds, 0.50);
    const double fresh_encode_p99 =
        PercentileMs(r.fresh_encode_seconds, 0.99);
    const double fresh_solve_p50 = PercentileMs(r.fresh_solve_seconds, 0.50);
    // The gate: applying a delta must cost < 10% of what the fresh flow
    // spends producing the formula the delta made unnecessary.
    const double ratio =
        fresh_encode_p50 > 0.0 ? apply_p50 / fresh_encode_p50 : 0.0;
    // Context: whole-query latency ratio, search included on both sides.
    const double total_ratio =
        fresh_encode_p50 + fresh_solve_p50 > 0.0
            ? (apply_p50 + session_solve_p50) /
                  (fresh_encode_p50 + fresh_solve_p50)
            : 0.0;
    all_equivalent = all_equivalent && r.equivalent;
    all_fast = all_fast && ratio < 0.10;
    if (!r.equivalent && first_mismatch.empty()) {
      first_mismatch = r.name + ":delta " +
                       std::to_string(r.first_mismatch_delta) + " (" +
                       r.mismatch_detail + ")";
    }

    char buffer[32];
    auto ms = [&](double v) {
      std::snprintf(buffer, sizeof buffer, "%.3fms", v);
      return std::string(buffer);
    };
    std::snprintf(buffer, sizeof buffer, "%.3f", ratio);
    const std::string ratio_cell = buffer;
    std::snprintf(buffer, sizeof buffer, "%.3f", total_ratio);
    const std::string total_cell = buffer;
    table.Row({r.name, std::to_string(r.width), ms(apply_p50),
               ms(apply_p99), ms(fresh_encode_p50), ms(fresh_encode_p99),
               ratio_cell, total_cell, r.equivalent ? "yes" : "NO"});

    obs::JsonObject o;
    o.emplace_back("instance", obs::JsonValue(r.name));
    o.emplace_back("width", obs::JsonValue(r.width));
    o.emplace_back("deltas", obs::JsonValue(r.deltas));
    obs::JsonObject session;
    session.emplace_back("apply_p50_ms", obs::JsonValue(apply_p50));
    session.emplace_back("apply_p99_ms", obs::JsonValue(apply_p99));
    session.emplace_back("solve_p50_ms", obs::JsonValue(session_solve_p50));
    o.emplace_back("session", obs::JsonValue(std::move(session)));
    obs::JsonObject fresh;
    fresh.emplace_back("encode_p50_ms", obs::JsonValue(fresh_encode_p50));
    fresh.emplace_back("encode_p99_ms", obs::JsonValue(fresh_encode_p99));
    fresh.emplace_back("solve_p50_ms", obs::JsonValue(fresh_solve_p50));
    o.emplace_back("fresh", obs::JsonValue(std::move(fresh)));
    o.emplace_back("median_ratio", obs::JsonValue(ratio));
    o.emplace_back("median_total_ratio", obs::JsonValue(total_ratio));
    o.emplace_back("equivalent", obs::JsonValue(r.equivalent));
    o.emplace_back("first_mismatch_delta",
                   obs::JsonValue(r.first_mismatch_delta));
    obs::JsonObject stats;
    stats.emplace_back("full_encodes", obs::JsonValue(r.stats.full_encodes));
    stats.emplace_back("graph_extractions",
                       obs::JsonValue(r.stats.graph_extractions));
    stats.emplace_back("groups_emitted",
                       obs::JsonValue(r.stats.groups_emitted));
    stats.emplace_back("groups_retired",
                       obs::JsonValue(r.stats.groups_retired));
    stats.emplace_back("partner_detachments",
                       obs::JsonValue(r.stats.partner_detachments));
    stats.emplace_back("witness_answers",
                       obs::JsonValue(r.stats.witness_answers));
    o.emplace_back("session_stats", obs::JsonValue(std::move(stats)));
    instances.emplace_back(std::move(o));
  }
  table.Separator();
  std::printf("ratio = delta-apply p50 / fresh-encode p50 (CI smoke gate "
              "< 0.10); total = whole-query ratio, search included\n");

  obs::JsonObject doc;
  doc.emplace_back("bench", obs::JsonValue(std::string("delta")));
  doc.emplace_back("deltas_per_instance", obs::JsonValue(deltas));
  doc.emplace_back("timeout_seconds", obs::JsonValue(timeout));
  doc.emplace_back("equivalent", obs::JsonValue(all_equivalent));
  doc.emplace_back("instances", obs::JsonValue(std::move(instances)));
  if (!bench::WriteJsonReport(out_path, obs::JsonValue(std::move(doc)))) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!all_equivalent) {
    std::fprintf(stderr,
                 "bench: verdict mismatch between session and fresh flow, "
                 "first at %s\n",
                 first_mismatch.c_str());
    return 1;
  }
  (void)all_fast;  // informational here; the CI smoke asserts the ratio
  return 0;
}
