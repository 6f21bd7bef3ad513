// E4 — Reproduces the §6 routable-configuration result: "most of the
// encodings had comparable and very efficient performance when finding
// solutions for configurations that were routable — with either siege_v4 or
// MiniSat", with MiniSat holding a small edge on satisfiable formulas.
// Runs all 14 evaluated encodings at W = W* with heuristic s1 under both
// solver presets and reports per-encoding totals.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "encode/registry.h"
#include "flow/detailed_router.h"
#include "flow/track_checker.h"

int main() {
  using namespace satfr;
  const double timeout = bench::BenchTimeoutSeconds();
  const std::vector<std::string> names = bench::BenchInstanceNames();

  std::printf(
      "== Routable configurations (W = W*): total time [s] over %zu "
      "benchmarks, per encoding and solver ==\n\n",
      names.size());

  std::vector<bench::Instance> instances;
  for (const std::string& name : names) {
    instances.push_back(bench::LoadInstance(name));
  }

  std::printf("%-26s  %14s  %14s\n", "encoding", "siege-like",
              "minisat-like");
  for (const std::string& encoding_name :
       encode::EvaluatedEncodingNames()) {
    std::printf("%-26s", encoding_name.c_str());
    for (const bool siege : {true, false}) {
      double total = 0.0;
      bool any_timeout = false;
      for (const bench::Instance& inst : instances) {
        flow::DetailedRouteOptions options;
        options.encoding = encode::GetEncoding(encoding_name);
        options.heuristic = symmetry::Heuristic::kS1;
        options.solver = siege ? sat::SolverOptions::SiegeLike()
                               : sat::SolverOptions::MiniSatLike();
        options.timeout_seconds = timeout;
        const flow::DetailedRouteResult result =
            flow::RouteDetailedOnGraph(inst.conflict, inst.min_width,
                                       options);
        if (result.status == sat::SolveResult::kUnknown) {
          any_timeout = true;
          total += timeout;
          continue;
        }
        if (result.status != sat::SolveResult::kSat) {
          std::printf("\nbench: %s at W*=%d must be SAT!\n",
                      inst.name.c_str(), inst.min_width);
          return 1;
        }
        std::string error;
        if (!flow::ValidateTrackAssignment(inst.arch, inst.routing,
                                           result.tracks, inst.min_width,
                                           &error)) {
          std::printf("\nbench: invalid detailed routing for %s: %s\n",
                      inst.name.c_str(), error.c_str());
          return 1;
        }
        total += result.TotalSeconds();
      }
      std::printf("  %14s", bench::TimeCell(total, any_timeout).c_str());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper reference: satisfiable formulas were solved in usually a "
      "fraction of a second\nby either solver, with MiniSat slightly "
      "ahead.\n");
  return 0;
}
