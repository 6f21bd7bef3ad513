#include <gtest/gtest.h>

#include <memory>

#include "flow/conflict_graph.h"
#include "flow/incremental_min_width.h"
#include "flow/min_width.h"
#include "flow/track_checker.h"
#include "graph/coloring_bounds.h"
#include "netlist/mcnc_suite.h"
#include "route/global_router.h"
#include "test_util.h"

namespace satfr::flow {
namespace {

TEST(SolverAssumptionsTest, BasicSatUnderAssumptions) {
  sat::Solver solver;
  const sat::Var a = solver.NewVar();
  const sat::Var b = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({sat::Lit::Pos(a), sat::Lit::Pos(b)}));
  EXPECT_EQ(solver.SolveWithAssumptions({sat::Lit::Neg(a)}),
            sat::SolveResult::kSat);
  EXPECT_TRUE(solver.ModelValue(sat::Lit::Pos(b)));
}

TEST(SolverAssumptionsTest, UnsatUnderAssumptionsIsRetractable) {
  sat::Solver solver;
  const sat::Var a = solver.NewVar();
  const sat::Var b = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({sat::Lit::Pos(a), sat::Lit::Pos(b)}));
  // Assuming both false contradicts the clause...
  EXPECT_EQ(solver.SolveWithAssumptions(
                {sat::Lit::Neg(a), sat::Lit::Neg(b)}),
            sat::SolveResult::kUnsat);
  // ...but the solver stays usable and the formula stays satisfiable.
  EXPECT_TRUE(solver.okay());
  EXPECT_EQ(solver.Solve(), sat::SolveResult::kSat);
}

TEST(SolverAssumptionsTest, ContradictoryAssumptionPair) {
  sat::Solver solver;
  const sat::Var a = solver.NewVar();
  solver.NewVar();
  EXPECT_EQ(solver.SolveWithAssumptions(
                {sat::Lit::Pos(a), sat::Lit::Neg(a)}),
            sat::SolveResult::kUnsat);
  EXPECT_TRUE(solver.okay());
}

TEST(SolverAssumptionsTest, LearnsAcrossQueries) {
  // Pigeonhole with a relaxation variable r: UNSAT under r, SAT under ~r.
  const sat::Cnf php = testutil::PigeonholeCnf(5);
  sat::Solver solver;
  ASSERT_TRUE(solver.AddCnf(php));
  const sat::Var r = solver.NewVar();
  // r forces pigeon 0 out of every hole (strengthens PHP; still UNSAT).
  for (int h = 0; h < 5; ++h) {
    ASSERT_TRUE(solver.AddClause({sat::Lit::Neg(r), sat::Lit::Neg(h)}));
  }
  EXPECT_EQ(solver.SolveWithAssumptions({sat::Lit::Pos(r)}),
            sat::SolveResult::kUnsat);
  EXPECT_TRUE(solver.okay());
  // PHP itself is UNSAT regardless of r.
  EXPECT_EQ(solver.Solve(), sat::SolveResult::kUnsat);
}

TEST(SolverAssumptionsTest, ManySequentialQueries) {
  // Draw instances until one survives top-level propagation.
  Rng rng(2718);
  sat::Cnf cnf;
  auto solver = std::make_unique<sat::Solver>();
  do {
    cnf = testutil::RandomCnf(rng, 20, 60, 4);
    solver = std::make_unique<sat::Solver>();
  } while (!solver->AddCnf(cnf));
  for (int i = 0; i < 20; ++i) {
    const sat::Var v =
        static_cast<sat::Var>(rng.NextBelow(20));
    const sat::Lit assumption = sat::Lit::Make(v, rng.NextBool(0.5));
    const sat::SolveResult result =
        solver->SolveWithAssumptions({assumption});
    if (!solver->okay()) break;  // formula itself refuted; nothing to check
    if (result == sat::SolveResult::kSat) {
      EXPECT_TRUE(cnf.IsSatisfiedBy(solver->model()));
      EXPECT_TRUE(solver->ModelValue(assumption));
    }
  }
}

TEST(IncrementalMinWidthTest, MatchesExactChromaticNumber) {
  Rng rng(31415);
  for (int i = 0; i < 10; ++i) {
    const graph::Graph g = testutil::RandomGraph(rng, 12, 0.35);
    const int chi = graph::ChromaticNumberExact(g);
    const IncrementalMinWidthResult result =
        FindMinimumWidthIncremental(g, 1);
    EXPECT_EQ(result.min_width, chi) << "iteration " << i;
    EXPECT_TRUE(result.proven_optimal);
    EXPECT_TRUE(g.IsProperColoring(result.tracks));
    for (const int track : result.tracks) {
      EXPECT_LT(track, chi);
    }
  }
}

TEST(IncrementalMinWidthTest, AgreesWithScratchSearchOnBenchmarks) {
  for (const std::string name : {"tiny", "9symml", "term1"}) {
    const netlist::McncBenchmark bench =
        netlist::GenerateMcncBenchmark(name);
    const fpga::Arch arch(bench.params.grid_size);
    const fpga::DeviceGraph device(arch);
    const route::GlobalRouting routing =
        route::RouteGlobally(device, bench.netlist, bench.placement);
    const graph::Graph conflict = BuildConflictGraph(arch, routing);
    const int peak = route::PeakCongestion(arch, routing);

    const MinWidthResult scratch = FindMinimumWidthOnGraph(conflict, peak, {});
    const IncrementalMinWidthResult incremental =
        FindMinimumWidthIncremental(conflict, peak);
    EXPECT_EQ(incremental.min_width, scratch.min_width) << name;
    std::string error;
    EXPECT_TRUE(ValidateTrackAssignment(arch, routing, incremental.tracks,
                                        incremental.min_width, &error))
        << name << ": " << error;
  }
}

TEST(IncrementalMinWidthTest, WorksAcrossEncodingsAndHeuristics) {
  Rng rng(27182);
  const graph::Graph g = testutil::RandomGraph(rng, 14, 0.4);
  const int chi = graph::ChromaticNumberExact(g);
  for (const char* encoding :
       {"muldirect", "log", "ITE-linear-2+muldirect", "direct-3+direct"}) {
    for (const symmetry::Heuristic h :
         {symmetry::Heuristic::kNone, symmetry::Heuristic::kB1,
          symmetry::Heuristic::kS1}) {
      IncrementalMinWidthOptions options;
      options.encoding = encode::GetEncoding(encoding);
      options.heuristic = h;
      const IncrementalMinWidthResult result =
          FindMinimumWidthIncremental(g, 1, options);
      EXPECT_EQ(result.min_width, chi)
          << encoding << "/" << symmetry::ToString(h);
    }
  }
}

TEST(IncrementalMinWidthTest, TimeoutReportsNoWidth) {
  Rng rng(999);
  const graph::Graph g = testutil::RandomGraph(rng, 60, 0.5);
  IncrementalMinWidthOptions options;
  options.timeout_seconds = 1e-6;
  const IncrementalMinWidthResult result =
      FindMinimumWidthIncremental(g, 3, options);
  EXPECT_EQ(result.min_width, -1);
}

TEST(IncrementalMinWidthTest, EdgelessGraph) {
  const graph::Graph g(4);
  const IncrementalMinWidthResult result = FindMinimumWidthIncremental(g, 1);
  EXPECT_EQ(result.min_width, 1);
}

}  // namespace
}  // namespace satfr::flow
