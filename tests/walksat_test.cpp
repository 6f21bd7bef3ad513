#include <gtest/gtest.h>

#include "encode/csp_to_cnf.h"
#include "encode/registry.h"
#include "sat/brute_force.h"
#include "sat/walksat.h"
#include "test_util.h"

namespace satfr::sat {
namespace {

TEST(WalkSatTest, TrivialSat) {
  Cnf cnf(2);
  cnf.AddBinary(Lit::Pos(0), Lit::Pos(1));
  cnf.AddUnit(Lit::Neg(0));
  WalkSat solver(cnf);
  ASSERT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_TRUE(cnf.IsSatisfiedBy(solver.model()));
}

TEST(WalkSatTest, EmptyFormulaIsSat) {
  Cnf cnf(3);
  WalkSat solver(cnf);
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
}

TEST(WalkSatTest, EmptyClauseGivesUnknown) {
  Cnf cnf(1);
  cnf.AddClause({});
  WalkSat solver(cnf);
  EXPECT_EQ(solver.Solve(), SolveResult::kUnknown);
}

TEST(WalkSatTest, NeverClaimsUnsat) {
  // On an UNSAT formula the solver must give up, not lie.
  Cnf cnf(1);
  cnf.AddUnit(Lit::Pos(0));
  cnf.AddUnit(Lit::Neg(0));
  WalkSatOptions options;
  options.max_tries = 3;
  options.flips_per_try = 1000;
  WalkSat solver(cnf, options);
  EXPECT_EQ(solver.Solve(), SolveResult::kUnknown);
}

TEST(WalkSatTest, SolvesSatisfiableRandomFormulas) {
  Rng rng(97);
  int solved = 0;
  int satisfiable = 0;
  for (int i = 0; i < 25; ++i) {
    const Cnf cnf = testutil::RandomCnf(rng, 15, 30, 4);
    if (!SolveByDpll(cnf).has_value()) continue;
    ++satisfiable;
    WalkSatOptions options;
    options.max_tries = 20;
    options.flips_per_try = 20000;
    WalkSat solver(cnf, options);
    if (solver.Solve() == SolveResult::kSat) {
      EXPECT_TRUE(cnf.IsSatisfiedBy(solver.model()));
      ++solved;
    }
  }
  ASSERT_GT(satisfiable, 0);
  // Local search should crack essentially all small satisfiable instances.
  EXPECT_EQ(solved, satisfiable);
}

TEST(WalkSatTest, SolvesRoutableColoringInstances) {
  // The use case from the paper: satisfiable formulas from routable
  // configurations, here a coloring of a random graph at its DSATUR width.
  Rng rng(98);
  const graph::Graph g = testutil::RandomGraph(rng, 20, 0.3);
  const encode::EncodedColoring enc =
      EncodeColoring(g, 8, encode::GetEncoding("muldirect"));
  WalkSat solver(enc.cnf);
  ASSERT_EQ(solver.Solve(Deadline::After(30.0)), SolveResult::kSat);
  const auto colors = DecodeColoring(enc, solver.model());
  EXPECT_TRUE(g.IsProperColoring(colors, 8));
}

TEST(WalkSatTest, DeadlineRespected) {
  // A hard (unsatisfiable) instance with an immediate deadline.
  const Cnf cnf = testutil::PigeonholeCnf(8);
  WalkSat solver(cnf);
  EXPECT_EQ(solver.Solve(Deadline::After(0.001)), SolveResult::kUnknown);
  EXPECT_GE(solver.stats().tries, 1u);
}

TEST(WalkSatTest, StatsAccumulate) {
  Rng rng(99);
  const Cnf cnf = testutil::RandomCnf(rng, 12, 30, 3);
  WalkSat solver(cnf);
  (void)solver.Solve(Deadline::After(0.2));
  EXPECT_GE(solver.stats().tries, 1u);
}

}  // namespace
}  // namespace satfr::sat
