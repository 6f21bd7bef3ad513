// Minimum-channel-width search with an unroutability proof — the paper's
// headline capability (§1: SAT "can prove the unroutability of a global
// routing for a particular number of tracks per channel", guaranteeing
// optimality of the found width).
//
// Usage:  ./build/examples/min_width_search [benchmark] [encoding] [b1|s1|-]
// e.g.    ./build/examples/min_width_search alu2 ITE-linear-2+muldirect s1
#include <cstdio>
#include <string>

#include "flow/conflict_graph.h"
#include "flow/min_width.h"
#include "graph/coloring_bounds.h"
#include "netlist/mcnc_suite.h"
#include "route/global_router.h"

int main(int argc, char** argv) {
  using namespace satfr;
  const std::string benchmark = argc > 1 ? argv[1] : "9symml";
  const std::string encoding = argc > 2 ? argv[2] : "ITE-linear-2+muldirect";
  const std::string heuristic = argc > 3 ? argv[3] : "s1";
  const auto spec = encode::FindEncoding(encoding);
  const auto heuristic_kind = symmetry::HeuristicFromName(heuristic);
  if (!spec || !heuristic_kind) {
    std::fprintf(stderr, "unknown encoding '%s' or heuristic '%s'\n",
                 encoding.c_str(), heuristic.c_str());
    return 2;
  }

  const netlist::McncBenchmark bench =
      netlist::GenerateMcncBenchmark(benchmark);
  const fpga::Arch arch(bench.params.grid_size);
  const fpga::DeviceGraph device(arch);
  const route::GlobalRouting routing =
      route::RouteGlobally(device, bench.netlist, bench.placement);
  const graph::Graph conflict = flow::BuildConflictGraph(arch, routing);

  std::printf("benchmark %s: conflict graph with %d vertices (2-pin nets), "
              "%zu edges\n",
              benchmark.c_str(), conflict.num_vertices(),
              conflict.num_edges());
  const int lower = route::PeakCongestion(arch, routing);
  const int upper = graph::NumColorsUsed(graph::DsaturColoring(conflict));
  std::printf("bounds before SAT: congestion lower bound %d, DSATUR upper "
              "bound %d\n",
              lower, upper);

  flow::MinWidthOptions options;
  options.route.encoding = *spec;
  options.route.heuristic = *heuristic_kind;
  options.route.timeout_seconds = 300.0;
  const flow::MinWidthResult result =
      flow::FindMinimumWidthOnGraph(conflict, lower, options);
  if (result.min_width < 0) {
    std::printf("timed out before establishing W*\n");
    return 1;
  }

  std::printf("\nW* = %d  (strategy: %s / %s)\n", result.min_width,
              encoding.c_str(), heuristic.c_str());
  std::printf("  routable at W*:    SAT   in %.3fs (%llu conflicts)\n",
              result.routable.TotalSeconds(),
              static_cast<unsigned long long>(
                  result.routable.solver_stats.conflicts));
  if (result.proven_optimal && result.min_width > 1) {
    std::printf("  unroutable at W*-1: UNSAT in %.3fs (%llu conflicts) — "
                "optimality proven\n",
                result.unroutable.TotalSeconds(),
                static_cast<unsigned long long>(
                    result.unroutable.solver_stats.conflicts));
  } else if (result.min_width == 1) {
    std::printf("  W* = 1 is trivially optimal\n");
  }
  return 0;
}
