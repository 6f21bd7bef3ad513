// cube_refute: one client thread, closed loop; each query is one call to
// cube::SolveColoringWithCubes with 3 resident worker solvers, at W*-1 (a
// refutation) or W* (a routing) of the eight Table-2 circuits, vda, C1355,
// alu4 and k2 being the hard ones, plus two seeded alu4 variants. The timed
// passes pin each worker's cube order and switch off stealing and clause
// sharing, so the search is the same on every run; the traced run adds the
// stealing-and-sharing arm and the monolithic arm.
#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cube/cube_solver.h"
#include "flow/detailed_router.h"
#include "workloads.h"

namespace perfbench {

namespace {

using satfr::sat::SolveResult;

constexpr int kWorkers = 3;
constexpr int kVariants = 2;
// 16 Table-2 queries a pass, 3+ passes: at least 10 raw samples lie beyond
// p80, and the tail mean over them is the three hardest queries.
constexpr double kTailPct = 80.0;
constexpr int kMinPasses = 3;
constexpr double kTimeoutSeconds = 60.0;
const char* const kEncoding = "muldirect";
constexpr auto kHeuristic = satfr::symmetry::Heuristic::kS1;

struct Query {
  std::size_t circuit;
  int width;
};

satfr::cube::CubeSolveOptions CubeOptions(bool deterministic) {
  satfr::cube::CubeSolveOptions o;
  o.pool.num_workers = kWorkers;
  o.pool.deterministic = deterministic;
  o.timeout_seconds = kTimeoutSeconds;
  return o;
}

satfr::cube::CubeSolveResult Solve(const Circuit& c, int width,
                                   bool deterministic) {
  return satfr::cube::SolveColoringWithCubes(
      c.graph, width, satfr::encode::GetEncoding(kEncoding), kHeuristic,
      CubeOptions(deterministic));
}

std::string Check(const Circuit& c, int width,
                  const satfr::cube::CubeSolveResult& r) {
  if (!r.error.empty()) return c.name + ": " + r.error;
  return CheckAnswer(c, width, r.status, r.colors);
}

}  // namespace

Outcome RunCubeRefute(const Args& args) {
  Outcome out;
  Samples setup_s;
  std::vector<Circuit> corpus;
  const std::string error =
      TimedCorpus(satfr::netlist::Table2BenchmarkNames(), {"alu4"}, kVariants,
                  args.seed, SetupRepeats(args), &setup_s, &corpus);
  if (!error.empty()) {
    out.Count("set-up: " + error);
    return out;
  }
  std::vector<Query> list;
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    list.push_back({c, corpus[c].wstar - 1});
    list.push_back({c, corpus[c].wstar});
  }
  satfr::Rng rng(args.seed);
  const std::vector<std::uint32_t> order =
      rng.Permutation(static_cast<std::uint32_t>(list.size()));

  Samples latency_ms, variant_ms;
  PerQuery per_query, table2;  // table2: the Table-2 queries only
  auto pass = [&] {
    const double start = NowMs();
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Query& q = list[order[k]];
      const Circuit& c = corpus[q.circuit];
      const double t = NowMs();
      const satfr::cube::CubeSolveResult r = Solve(c, q.width, true);
      const double ms = NowMs() - t;
      (c.variant ? variant_ms : latency_ms).Add(ms);
      per_query.Add(k, ms);
      if (!c.variant) table2.Add(k, ms);
      out.Count(Check(c, q.width, r));
    }
    return (NowMs() - start) / 1e3;
  };
  if (!args.trace) {
    const Passes passes = RunPasses(args.seconds, kMinPasses, pass);
    AddEndToEnd(&out, setup_s, passes, list.size(),
                per_query.MedianPassSeconds(), "sum of per-query medians",
                table2.Medians(), "per-query medians of the Table-2 queries",
                latency_ms, "raw samples of the Table-2 queries", kTailPct);
    out.notes.push_back(VariantNote(variant_ms));
    return out;
  }

  const double untraced_ms = pass() * 1e3;
  Tracer tracer;
  Samples cubes, pruned, cube_ms;
  double busy_s = 0.0, capacity_s = 0.0;
  SatTotals sat;
  const double start = NowMs();
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Query& q = list[order[k]];
    const Circuit& c = corpus[q.circuit];
    ScopedSpan span(&tracer, "cube.solve", QueryId(0, k));
    const double t = NowMs();
    const satfr::cube::CubeSolveResult r = Solve(c, q.width, true);
    double critical_s = 0.0;
    for (const auto& load : r.worker_loads) {
      busy_s += load.busy_seconds;
      critical_s = std::max(critical_s, load.busy_seconds);
    }
    capacity_s += kWorkers * r.wall_seconds;
    tracer.Returned("sat.solve", t, critical_s * 1e3);
    cube_ms.Add(r.wall_seconds * 1e3);
    cubes.Add(static_cast<double>(r.num_cubes));
    pruned.Add(static_cast<double>(r.pruned_conflict + r.pruned_symmetry));
    sat.Add(r.solver_stats);
    sat.AddSolve(r.status, r.wall_seconds);
    out.Count(Check(c, q.width, r));
  }
  const double traced_ms = NowMs() - start;
  const double untraced_after_ms = pass() * 1e3;

  // Ablation arms, each checked like the timed pass.
  Samples stolen, imported, mono_ms;
  for (const std::uint32_t i : order) {
    const Circuit& c = corpus[list[i].circuit];
    const int width = list[i].width;
    const satfr::cube::CubeSolveResult shared = Solve(c, width, false);
    stolen.Add(static_cast<double>(shared.cubes_stolen));
    imported.Add(static_cast<double>(shared.solver_stats.imported_clauses));
    out.Count(Check(c, width, shared));

    satfr::flow::DetailedRouteOptions mono;
    mono.encoding = satfr::encode::GetEncoding(kEncoding);
    mono.heuristic = kHeuristic;
    mono.timeout_seconds = kTimeoutSeconds;
    const double t = NowMs();
    const satfr::flow::DetailedRouteResult r =
        satfr::flow::RouteDetailedOnGraph(c.graph, width, mono);
    mono_ms.Add(NowMs() - t);
    out.Count(CheckAnswer(c, width, r.status, r.tracks));
  }

  out.Add("cube.cubes", cubes.Mean(), "count", "per query");
  out.Add("cube.cubes_stolen", stolen.Mean(), "count",
          "per query, stealing-and-sharing arm");
  out.Add("cube.pruned", pruned.Mean(), "count", "per query");
  out.Add("cube.worker_busy_ratio", capacity_s > 0 ? busy_s / capacity_s : 0,
          "ratio", "busy / (3 workers x wall)");
  out.Add("cube.exchange_imported", imported.Mean(), "count",
          "per query, stealing-and-sharing arm");
  out.Add("cube.mono_ms", mono_ms.Mean(), "ms",
          "monolithic RouteDetailedOnGraph, same encoding, per query");
  out.Add("cube.speedup_vs_mono", mono_ms.Sum() / cube_ms.Sum(), "ratio",
          "monolithic total / 3-worker pinned cube total");
  AddSatMetrics(&out, sat, sat.sat_ms.size() + sat.unsat_ms.size());
  AddTraceMetrics(&out, tracer, traced_ms,
                  (untraced_ms + untraced_after_ms) / 2,
                  TracePath(args));
  out.notes.push_back(
      "coverage: one cube.solve span per SolveColoringWithCubes call; sat "
      "from the busiest worker's returned busy time");
  return out;
}

}  // namespace perfbench
