// Equivalence sweep across the solver configurations that ship (the
// default, both paper presets) and two database-hostile settings (arena GC
// and vivification as often as legal): none may change a verdict, and every
// SAT model must decode to a valid track assignment. The sweep runs every
// evaluated encoding under each symmetry heuristic on a small MCNC-derived
// routing instance, at the minimum routable width (SAT side) and one track
// below it (UNSAT side) — the same W / W*-1 pair the paper's experiments
// use.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "encode/csp_to_cnf.h"
#include "encode/registry.h"
#include "flow/conflict_graph.h"
#include "flow/min_width.h"
#include "netlist/mcnc_suite.h"
#include "route/global_router.h"
#include "sat/solver.h"
#include "symmetry/symmetry.h"

namespace satfr {
namespace {

struct SweepConfig {
  const char* name;
  sat::SolverOptions options;
};

std::vector<SweepConfig> SweepConfigs() {
  std::vector<SweepConfig> configs;
  configs.push_back({"default", sat::SolverOptions{}});
  {
    // The default GC threshold never fires on an instance this small, so
    // the GC leg lowers it until collections actually happen.
    SweepConfig c{"gc-hostile", sat::SolverOptions{}};
    c.options.gc_min_arena_words = 1u << 8;
    configs.push_back(c);
  }
  {
    SweepConfig c{"eager-vivify", sat::SolverOptions{}};
    c.options.vivify_interval = 1;
    configs.push_back(c);
  }
  configs.push_back({"siege", sat::SolverOptions::SiegeLike()});
  configs.push_back({"minisat", sat::SolverOptions::MiniSatLike()});
  return configs;
}

bool ValidColoring(const graph::Graph& g, const std::vector<int>& colors,
                   int num_colors, std::string* error) {
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (colors[static_cast<std::size_t>(v)] < 0 ||
        colors[static_cast<std::size_t>(v)] >= num_colors) {
      *error = "vertex " + std::to_string(v) + " out of range";
      return false;
    }
  }
  for (const auto& [u, v] : g.Edges()) {
    if (colors[static_cast<std::size_t>(u)] ==
        colors[static_cast<std::size_t>(v)]) {
      *error = "conflict edge (" + std::to_string(u) + ", " +
               std::to_string(v) + ") shares a track";
      return false;
    }
  }
  return true;
}

TEST(SolverSweepTest, ShippedConfigsPreserveVerdictsAcrossEncodings) {
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark("tiny");
  const fpga::Arch arch(bench.params.grid_size);
  const fpga::DeviceGraph device(arch);
  const route::GlobalRouting routing =
      route::RouteGlobally(device, bench.netlist, bench.placement);
  const graph::Graph conflict = flow::BuildConflictGraph(arch, routing);

  flow::MinWidthOptions mw_options;
  mw_options.route.timeout_seconds = 120.0;
  const flow::MinWidthResult mw = flow::FindMinimumWidthOnGraph(
      conflict, route::PeakCongestion(arch, routing), mw_options);
  ASSERT_GT(mw.min_width, 1);
  ASSERT_TRUE(mw.proven_optimal);

  const std::vector<SweepConfig> configs = SweepConfigs();
  const symmetry::Heuristic heuristics[] = {symmetry::Heuristic::kNone,
                                            symmetry::Heuristic::kB1,
                                            symmetry::Heuristic::kS1};
  for (const std::string& encoding : encode::EvaluatedEncodingNames()) {
    const encode::EncodingSpec& spec = encode::GetEncoding(encoding);
    for (const symmetry::Heuristic heuristic : heuristics) {
      for (const int width : {mw.min_width, mw.min_width - 1}) {
        const auto sequence =
            symmetry::SymmetrySequence(conflict, width, heuristic);
        const encode::EncodedColoring enc =
            encode::EncodeColoring(conflict, width, spec, sequence);
        const sat::SolveResult expected = width >= mw.min_width
                                              ? sat::SolveResult::kSat
                                              : sat::SolveResult::kUnsat;
        for (const SweepConfig& config : configs) {
          SCOPED_TRACE(encoding + "/" + symmetry::ToString(heuristic) +
                       " width=" + std::to_string(width) + " config=" +
                       config.name);
          sat::Solver solver(config.options);
          sat::SolveResult verdict = sat::SolveResult::kUnsat;
          if (solver.AddCnf(enc.cnf)) verdict = solver.Solve();
          EXPECT_EQ(verdict, expected);
          if (verdict == sat::SolveResult::kSat) {
            const std::vector<int> colors =
                encode::DecodeColoring(enc, solver.model());
            std::string error;
            EXPECT_TRUE(ValidColoring(conflict, colors, width, &error))
                << error;
          }
          std::string invariant_error;
          EXPECT_TRUE(solver.CheckInvariants(&invariant_error))
              << invariant_error;
        }
      }
    }
  }
}

}  // namespace
}  // namespace satfr
