// E8 — Micro-benchmarks (google-benchmark) for the hot paths of the
// pipeline: domain encoding, coloring->CNF compilation, conflict-graph
// extraction, maze routing, and the SAT solver on a fixed instance family.
#include <benchmark/benchmark.h>

#include <map>

#include "analysis/runner.h"
#include "encode/csp_to_cnf.h"
#include "encode/registry.h"
#include "flow/conflict_graph.h"
#include "flow/min_width.h"
#include "netlist/mcnc_suite.h"
#include "route/global_router.h"
#include "sat/clause_sink.h"
#include "sat/solver.h"
#include "symmetry/symmetry.h"

namespace {

using namespace satfr;

void BM_EncodeDomain(benchmark::State& state,
                     const std::string& encoding_name) {
  const encode::EncodingSpec spec = encode::GetEncoding(encoding_name);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeDomain(spec, k));
  }
}
BENCHMARK_CAPTURE(BM_EncodeDomain, muldirect, std::string("muldirect"))
    ->Arg(8)
    ->Arg(32);
BENCHMARK_CAPTURE(BM_EncodeDomain, ite_linear_2_muldirect,
                  std::string("ITE-linear-2+muldirect"))
    ->Arg(8)
    ->Arg(32);
BENCHMARK_CAPTURE(BM_EncodeDomain, ite_log, std::string("ITE-log"))
    ->Arg(8)
    ->Arg(32);

void BM_EncodeColoring(benchmark::State& state,
                       const std::string& encoding_name) {
  // A fixed random-ish graph: circulant on 80 vertices.
  graph::Graph g(80);
  for (graph::VertexId v = 0; v < 80; ++v) {
    for (int offset : {1, 2, 5, 11}) {
      g.AddEdge(v, (v + offset) % 80);
    }
  }
  const encode::EncodingSpec spec = encode::GetEncoding(encoding_name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeColoring(g, 6, spec));
  }
}
BENCHMARK_CAPTURE(BM_EncodeColoring, muldirect, std::string("muldirect"));
BENCHMARK_CAPTURE(BM_EncodeColoring, ite_linear_2_muldirect,
                  std::string("ITE-linear-2+muldirect"));

// The conflict graph of a registered MCNC circuit, built once per name.
const graph::Graph& McncConflictGraph(const std::string& name) {
  static std::map<std::string, graph::Graph>* cache =
      new std::map<std::string, graph::Graph>();
  const auto it = cache->find(name);
  if (it != cache->end()) return it->second;
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark(name);
  const fpga::Arch arch(bench.params.grid_size);
  const fpga::DeviceGraph device(arch);
  return cache
      ->emplace(name, flow::BuildConflictGraph(
                          arch, route::RouteGlobally(device, bench.netlist,
                                                     bench.placement)))
      .first->second;
}

// The two encode->solve paths on the same instance: materialize a Cnf and
// AddCnf it (collector) versus streaming the encoder into the solver
// (direct). The delta is the cost of the intermediate Cnf. Both end the
// solver's load phase (Solver::FinishLoad, the binary CSR build, which
// SolverSink::Finish runs), so load work deferred to the first search
// still counts.
void BM_EncodeColoringCollectorToSolver(benchmark::State& state,
                                        const std::string& encoding_name) {
  graph::Graph g(80);
  for (graph::VertexId v = 0; v < 80; ++v) {
    for (int offset : {1, 2, 5, 11}) {
      g.AddEdge(v, (v + offset) % 80);
    }
  }
  const encode::EncodingSpec spec = encode::GetEncoding(encoding_name);
  for (auto _ : state) {
    sat::Solver solver;
    const encode::EncodedColoring enc = EncodeColoring(g, 6, spec);
    solver.AddCnf(enc.cnf);
    solver.FinishLoad();
    benchmark::DoNotOptimize(solver.num_vars());
  }
}
BENCHMARK_CAPTURE(BM_EncodeColoringCollectorToSolver, muldirect,
                  std::string("muldirect"));
BENCHMARK_CAPTURE(BM_EncodeColoringCollectorToSolver, ite_linear_2_muldirect,
                  std::string("ITE-linear-2+muldirect"));

// `circuit` empty: the 80-vertex circulant at 6 colors; otherwise the
// circuit's conflict graph at `width` colors.
void BM_EncodeColoringDirectToSolver(benchmark::State& state,
                                     const std::string& circuit, int width,
                                     const std::string& encoding_name) {
  graph::Graph circulant(80);
  for (graph::VertexId v = 0; v < 80; ++v) {
    for (int offset : {1, 2, 5, 11}) {
      circulant.AddEdge(v, (v + offset) % 80);
    }
  }
  const graph::Graph& g =
      circuit.empty() ? circulant : McncConflictGraph(circuit);
  const encode::EncodingSpec spec = encode::GetEncoding(encoding_name);
  for (auto _ : state) {
    sat::Solver solver;
    sat::SolverSink sink(solver);
    benchmark::DoNotOptimize(
        encode::EncodeColoringToSink(g, width, spec, {}, sink));
    sink.Finish();
    benchmark::DoNotOptimize(solver.num_vars());
  }
}
BENCHMARK_CAPTURE(BM_EncodeColoringDirectToSolver, muldirect, std::string(),
                  6, std::string("muldirect"));
BENCHMARK_CAPTURE(BM_EncodeColoringDirectToSolver, ite_linear_2_muldirect,
                  std::string(), 6, std::string("ITE-linear-2+muldirect"));
// Table-2 scale: k2 at its minimum width W* = 9.
BENCHMARK_CAPTURE(BM_EncodeColoringDirectToSolver, k2_w9_muldirect,
                  std::string("k2"), 9, std::string("muldirect"));
BENCHMARK_CAPTURE(BM_EncodeColoringDirectToSolver, k2_w9_ite_linear_2_muldirect,
                  std::string("k2"), 9, std::string("ITE-linear-2+muldirect"));

void BM_LintEncodedColoring(benchmark::State& state,
                            const std::string& encoding_name) {
  // Same circulant instance as BM_EncodeColoring, so the two benchmarks
  // together give the lint/encode overhead ratio of `satlint encode`.
  graph::Graph g(80);
  for (graph::VertexId v = 0; v < 80; ++v) {
    for (int offset : {1, 2, 5, 11}) {
      g.AddEdge(v, (v + offset) % 80);
    }
  }
  const encode::EncodingSpec spec = encode::GetEncoding(encoding_name);
  const std::vector<graph::VertexId> sequence =
      symmetry::SymmetrySequence(g, 6, symmetry::Heuristic::kS1);
  const encode::EncodedColoring encoded =
      encode::EncodeColoring(g, 6, spec, sequence);
  const analysis::AnalysisRunner runner = analysis::MakeDefaultRunner();
  analysis::AnalysisInput input;
  input.cnf = &encoded.cnf;
  input.conflict_graph = &g;
  input.encoded = &encoded;
  input.spec = &spec;
  input.symmetry_sequence = &sequence;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.Run(input));
  }
}
BENCHMARK_CAPTURE(BM_LintEncodedColoring, muldirect,
                  std::string("muldirect"));
BENCHMARK_CAPTURE(BM_LintEncodedColoring, ite_linear_2_muldirect,
                  std::string("ITE-linear-2+muldirect"));

void BM_GlobalRoute(benchmark::State& state) {
  const netlist::McncBenchmark bench =
      netlist::GenerateMcncBenchmark("9symml");
  const fpga::Arch arch(bench.params.grid_size);
  const fpga::DeviceGraph device(arch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        route::RouteGlobally(device, bench.netlist, bench.placement));
  }
}
BENCHMARK(BM_GlobalRoute);

void BM_ConflictGraph(benchmark::State& state) {
  const netlist::McncBenchmark bench =
      netlist::GenerateMcncBenchmark("term1");
  const fpga::Arch arch(bench.params.grid_size);
  const fpga::DeviceGraph device(arch);
  const route::GlobalRouting routing =
      route::RouteGlobally(device, bench.netlist, bench.placement);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::BuildConflictGraph(arch, routing));
  }
}
BENCHMARK(BM_ConflictGraph);

void BM_SolverPigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  const int pigeons = holes + 1;
  std::uint64_t propagations = 0;
  double solve_seconds = 0.0;
  for (auto _ : state) {
    sat::Solver solver;
    sat::Cnf cnf(pigeons * holes);
    const auto var = [holes](int p, int h) { return p * holes + h; };
    for (int p = 0; p < pigeons; ++p) {
      sat::Clause alo;
      for (int h = 0; h < holes; ++h) {
        alo.push_back(sat::Lit::Pos(var(p, h)));
      }
      cnf.AddClause(std::move(alo));
    }
    for (int h = 0; h < holes; ++h) {
      for (int p1 = 0; p1 < pigeons; ++p1) {
        for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
          cnf.AddBinary(sat::Lit::Neg(var(p1, h)),
                        sat::Lit::Neg(var(p2, h)));
        }
      }
    }
    solver.AddCnf(cnf);
    benchmark::DoNotOptimize(solver.Solve());
    propagations += solver.stats().propagations;
    solve_seconds += solver.stats().solve_seconds;
  }
  if (solve_seconds > 0.0) {
    state.counters["props/s"] =
        static_cast<double>(propagations) / solve_seconds;
  }
}
BENCHMARK(BM_SolverPigeonhole)->Arg(5)->Arg(7);

// Unroutable (W = W*-1) MCNC routing instance under a chosen encoding.
// The direct encoding yields the clause profile the binary-implication
// layer targets (>95% binary clauses); ITE-linear-2+muldirect is the
// paper's best strategy and exercises the long-clause watchers too.
// Building the instance needs a min-width search, so it is cached across
// benchmark registrations and iterations.
const encode::EncodedColoring& UnroutableInstance(
    const std::string& name, const std::string& encoding) {
  static std::map<std::string, encode::EncodedColoring>* cache =
      new std::map<std::string, encode::EncodedColoring>();
  const std::string key = name + "/" + encoding;
  const auto it = cache->find(key);
  if (it != cache->end()) return it->second;

  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark(name);
  const fpga::Arch arch(bench.params.grid_size);
  const fpga::DeviceGraph device(arch);
  const route::GlobalRouting routing =
      route::RouteGlobally(device, bench.netlist, bench.placement);
  const graph::Graph conflict = flow::BuildConflictGraph(arch, routing);

  flow::MinWidthOptions options;
  options.route.encoding = encode::GetEncoding("ITE-linear-2+muldirect");
  options.route.heuristic = symmetry::Heuristic::kS1;
  options.route.timeout_seconds = 300.0;
  const flow::MinWidthResult mw = flow::FindMinimumWidthOnGraph(
      conflict, route::PeakCongestion(arch, routing), options);
  const int width = mw.min_width - 1;

  const auto sequence =
      symmetry::SymmetrySequence(conflict, width, symmetry::Heuristic::kS1);
  return cache
      ->emplace(key, encode::EncodeColoring(conflict, width,
                                            encode::GetEncoding(encoding),
                                            sequence))
      .first->second;
}

void BM_SolverRoutingUnsat(benchmark::State& state, const std::string& name,
                           const std::string& encoding,
                           const sat::SolverOptions& options) {
  const encode::EncodedColoring& encoded = UnroutableInstance(name, encoding);
  std::uint64_t propagations = 0;
  std::uint64_t binary_propagations = 0;
  double solve_seconds = 0.0;
  std::size_t peak_clause_bytes = 0;
  for (auto _ : state) {
    sat::Solver solver(options);
    solver.AddCnf(encoded.cnf);
    benchmark::DoNotOptimize(solver.Solve());
    propagations += solver.stats().propagations;
    binary_propagations += solver.stats().binary_propagations;
    solve_seconds += solver.stats().solve_seconds;
    peak_clause_bytes = std::max(peak_clause_bytes,
                                 solver.ClauseMemoryBytes());
  }
  if (solve_seconds > 0.0) {
    state.counters["props/s"] =
        static_cast<double>(propagations) / solve_seconds;
    state.counters["bin_props/s"] =
        static_cast<double>(binary_propagations) / solve_seconds;
  }
  state.counters["clause_KiB"] =
      static_cast<double>(peak_clause_bytes) / 1024.0;
}

// The W*-1 suite of ISSUE 5: {alu2, alu4, too_large} x {direct,
// ITE-linear-2+muldirect}, all under s1 symmetry breaking.
#define SATFR_ROUTING_UNSAT_SUITE(config_name, options)                     \
  BENCHMARK_CAPTURE(BM_SolverRoutingUnsat, alu2_direct_s1_##config_name,    \
                    std::string("alu2"), std::string("direct"), options)    \
      ->Unit(benchmark::kMillisecond);                                      \
  BENCHMARK_CAPTURE(BM_SolverRoutingUnsat, alu4_direct_s1_##config_name,    \
                    std::string("alu4"), std::string("direct"), options)    \
      ->Unit(benchmark::kMillisecond);                                      \
  BENCHMARK_CAPTURE(BM_SolverRoutingUnsat,                                  \
                    too_large_direct_s1_##config_name,                      \
                    std::string("too_large"), std::string("direct"),        \
                    options)                                                \
      ->Unit(benchmark::kMillisecond);                                      \
  BENCHMARK_CAPTURE(BM_SolverRoutingUnsat, alu2_ite2md_s1_##config_name,    \
                    std::string("alu2"),                                    \
                    std::string("ITE-linear-2+muldirect"), options)         \
      ->Unit(benchmark::kMillisecond);                                      \
  BENCHMARK_CAPTURE(BM_SolverRoutingUnsat, alu4_ite2md_s1_##config_name,    \
                    std::string("alu4"),                                    \
                    std::string("ITE-linear-2+muldirect"), options)         \
      ->Unit(benchmark::kMillisecond);                                      \
  BENCHMARK_CAPTURE(BM_SolverRoutingUnsat,                                  \
                    too_large_ite2md_s1_##config_name,                      \
                    std::string("too_large"),                               \
                    std::string("ITE-linear-2+muldirect"), options)         \
      ->Unit(benchmark::kMillisecond)

SATFR_ROUTING_UNSAT_SUITE(default, sat::SolverOptions());

}  // namespace

BENCHMARK_MAIN();
