#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>

#include "sat/brute_force.h"
#include "mc/shim.h"
#include "sat/solver.h"
#include "test_util.h"

namespace satfr::sat {
namespace {

SolveResult SolveCnf(const Cnf& cnf, Solver* solver) {
  if (!solver->AddCnf(cnf)) return SolveResult::kUnsat;
  return solver->Solve();
}

TEST(SolverTest, EmptyFormulaIsSat) {
  Solver solver;
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
}

TEST(SolverTest, SingleUnit) {
  Solver solver;
  const Var v = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Lit::Pos(v)}));
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_TRUE(solver.ModelValue(Lit::Pos(v)));
}

TEST(SolverTest, ContradictoryUnits) {
  Solver solver;
  const Var v = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Lit::Pos(v)}));
  EXPECT_FALSE(solver.AddClause({Lit::Neg(v)}));
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
  EXPECT_FALSE(solver.okay());
}

TEST(SolverTest, EmptyClauseIsUnsat) {
  Solver solver;
  solver.NewVar();
  EXPECT_FALSE(solver.AddClause({}));
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
}

TEST(SolverTest, DuplicateAndTautologicalClauses) {
  Solver solver;
  const Var a = solver.NewVar();
  const Var b = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Lit::Pos(a), Lit::Neg(a)}));  // tautology
  ASSERT_TRUE(solver.AddClause({Lit::Pos(a), Lit::Pos(a), Lit::Pos(b)}));
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
}

TEST(SolverTest, SimpleImplicationChain) {
  // (~x0 | x1) (~x1 | x2) ... (x0) forces all true.
  Solver solver;
  const int n = 20;
  for (int i = 0; i < n; ++i) solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Lit::Pos(0)}));
  for (int i = 0; i + 1 < n; ++i) {
    ASSERT_TRUE(solver.AddClause({Lit::Neg(i), Lit::Pos(i + 1)}));
  }
  ASSERT_EQ(solver.Solve(), SolveResult::kSat);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(solver.ModelValue(Lit::Pos(i)));
  }
}

TEST(SolverTest, XorChainUnsat) {
  // x0, xor chain equalities forcing x_{n-1}, plus ~x_{n-1}: UNSAT.
  Solver solver;
  const int n = 12;
  for (int i = 0; i < n; ++i) solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Lit::Pos(0)}));
  for (int i = 0; i + 1 < n; ++i) {
    // x_i == x_{i+1}
    ASSERT_TRUE(solver.AddClause({Lit::Neg(i), Lit::Pos(i + 1)}));
    ASSERT_TRUE(solver.AddClause({Lit::Pos(i), Lit::Neg(i + 1)}));
  }
  // Level-0 propagation already forces x_{n-1}; the solver may detect the
  // contradiction right here (AddClause returns false) — Solve must then
  // report UNSAT either way.
  (void)solver.AddClause({Lit::Neg(n - 1)});
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
}

TEST(SolverTest, PigeonholeUnsat) {
  for (int holes : {3, 4, 5, 6}) {
    Solver solver;
    EXPECT_EQ(SolveCnf(testutil::PigeonholeCnf(holes), &solver),
              SolveResult::kUnsat)
        << "PHP(" << holes + 1 << "," << holes << ")";
  }
}

TEST(SolverTest, PigeonholeSatWhenEnoughHoles) {
  // pigeons == holes: satisfiable (permutation).
  const int n = 5;
  Cnf cnf(n * n);
  const auto var = [n](int p, int h) { return p * n + h; };
  for (int p = 0; p < n; ++p) {
    Clause alo;
    for (int h = 0; h < n; ++h) alo.push_back(Lit::Pos(var(p, h)));
    cnf.AddClause(std::move(alo));
  }
  for (int h = 0; h < n; ++h) {
    for (int p1 = 0; p1 < n; ++p1) {
      for (int p2 = p1 + 1; p2 < n; ++p2) {
        cnf.AddBinary(Lit::Neg(var(p1, h)), Lit::Neg(var(p2, h)));
      }
    }
  }
  Solver solver;
  ASSERT_EQ(SolveCnf(cnf, &solver), SolveResult::kSat);
  EXPECT_TRUE(cnf.IsSatisfiedBy(solver.model()));
}

TEST(SolverTest, ModelSatisfiesFormula) {
  Rng rng(31337);
  for (int i = 0; i < 30; ++i) {
    const Cnf cnf = testutil::RandomCnf(rng, 30, 100, 4);
    Solver solver;
    if (SolveCnf(cnf, &solver) == SolveResult::kSat) {
      EXPECT_TRUE(cnf.IsSatisfiedBy(solver.model()));
    }
  }
}

TEST(SolverTest, PresetLookupKnowsExactlyTheTwoPresets) {
  const std::optional<SolverOptions> siege = FindSolverPreset("siege");
  const std::optional<SolverOptions> minisat = FindSolverPreset("minisat");
  ASSERT_TRUE(siege.has_value());
  ASSERT_TRUE(minisat.has_value());
  EXPECT_EQ(siege->restart_base, SolverOptions::SiegeLike().restart_base);
  EXPECT_EQ(minisat->luby_restarts, SolverOptions::MiniSatLike().luby_restarts);
  for (const char* name : {"bogus", "", "walksat", "Siege", "minisat "}) {
    EXPECT_FALSE(FindSolverPreset(name).has_value()) << "'" << name << "'";
  }
}

// Cross-check CDCL against plain DPLL on many random instances, for both
// option presets. This is the core soundness test of the engine.
class SolverCrossCheckTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SolverCrossCheckTest, AgreesWithDpll) {
  const auto [seed, siege_like] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  for (int i = 0; i < 40; ++i) {
    // Around the 3-SAT phase transition so both outcomes are frequent.
    const int vars = 12 + static_cast<int>(rng.NextBelow(8));
    const int clauses = static_cast<int>(vars * 4.2);
    const Cnf cnf = testutil::RandomCnf(rng, vars, clauses, 3);
    const bool expected = SolveByDpll(cnf).has_value();
    Solver solver(siege_like ? SolverOptions::SiegeLike()
                             : SolverOptions::MiniSatLike());
    const SolveResult result = SolveCnf(cnf, &solver);
    ASSERT_NE(result, SolveResult::kUnknown);
    EXPECT_EQ(result == SolveResult::kSat, expected)
        << "seed=" << seed << " iteration=" << i;
    if (result == SolveResult::kSat) {
      EXPECT_TRUE(cnf.IsSatisfiedBy(solver.model()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomFormulas, SolverCrossCheckTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_siege" : "_minisat");
    });

TEST(SolverTest, DeadlineReturnsUnknown) {
  // A hard pigeonhole instance cannot finish in ~zero time.
  Solver solver;
  ASSERT_TRUE(solver.AddCnf(testutil::PigeonholeCnf(11)));
  EXPECT_EQ(solver.Solve(Deadline::After(0.001)), SolveResult::kUnknown);
}

TEST(SolverTest, StopFlagAbortsSearch) {
  Solver solver;
  ASSERT_TRUE(solver.AddCnf(testutil::PigeonholeCnf(11)));
  satfr::mc::Atomic<bool> stop{false};
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    stop.store(true);
  });
  const SolveResult result = solver.Solve(Deadline(), &stop);
  stopper.join();
  EXPECT_EQ(result, SolveResult::kUnknown);
}

TEST(SolverTest, SolveTwiceIsConsistent) {
  Rng rng(77);
  const Cnf cnf = testutil::RandomCnf(rng, 15, 60);
  Solver solver;
  const SolveResult first = SolveCnf(cnf, &solver);
  const SolveResult second = solver.Solve();
  EXPECT_EQ(first, second);
}

TEST(SolverTest, StatsArePopulated) {
  Solver solver;
  ASSERT_TRUE(solver.AddCnf(testutil::PigeonholeCnf(6)));
  ASSERT_EQ(solver.Solve(), SolveResult::kUnsat);
  const SolverStats& stats = solver.stats();
  EXPECT_GT(stats.conflicts, 0u);
  EXPECT_GT(stats.decisions, 0u);
  EXPECT_GT(stats.propagations, 0u);
  EXPECT_GT(stats.learned, 0u);
}

TEST(SolverTest, LongRunExercisesReduceAndGc) {
  // Large enough to trigger clause-database reduction and arena GC.
  Solver solver;
  ASSERT_TRUE(solver.AddCnf(testutil::PigeonholeCnf(8)));
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
  EXPECT_GT(solver.stats().learned, 1000u);
}

TEST(SolverTest, ToStringNames) {
  EXPECT_STREQ(ToString(SolveResult::kSat), "SAT");
  EXPECT_STREQ(ToString(SolveResult::kUnsat), "UNSAT");
  EXPECT_STREQ(ToString(SolveResult::kUnknown), "UNKNOWN");
}

TEST(SolverTest, AddCnfAllocatesVariables) {
  Cnf cnf(5);
  cnf.AddBinary(Lit::Pos(3), Lit::Pos(4));
  Solver solver;
  ASSERT_TRUE(solver.AddCnf(cnf));
  EXPECT_EQ(solver.num_vars(), 5);
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
}

TEST(SolverTest, SatisfiedClauseAtLevelZeroIsDropped) {
  Solver solver;
  const Var a = solver.NewVar();
  const Var b = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Lit::Pos(a)}));
  // Already satisfied by the unit above; must be a no-op.
  ASSERT_TRUE(solver.AddClause({Lit::Pos(a), Lit::Pos(b)}));
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
}

TEST(SolverTest, BinaryLayerPropagatesChains) {
  // x0 -> x1 -> x2 -> x3 -> x4, all through the binary layer (the binaries
  // must precede the unit so they are not strengthened away at add time).
  Cnf cnf(5);
  for (int v = 0; v + 1 < 5; ++v) {
    cnf.AddBinary(Lit::Neg(v), Lit::Pos(v + 1));
  }
  cnf.AddUnit(Lit::Pos(0));
  Solver solver;
  ASSERT_TRUE(solver.AddCnf(cnf));
  EXPECT_EQ(solver.stats().binary_propagations, 4u);
  ASSERT_EQ(solver.Solve(), SolveResult::kSat);
  for (int v = 0; v < 5; ++v) {
    EXPECT_TRUE(solver.model()[static_cast<std::size_t>(v)]);
  }
}

TEST(SolverTest, ConflictAnalysisThroughBinaryReasons) {
  // (a | b)(a | ~b)(~a | c)(~a | ~c): UNSAT, and every implication and
  // conflict the solver ever sees has a binary reason.
  Solver solver;
  const Var a = solver.NewVar();
  const Var b = solver.NewVar();
  const Var c = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Lit::Pos(a), Lit::Pos(b)}));
  ASSERT_TRUE(solver.AddClause({Lit::Pos(a), Lit::Neg(b)}));
  ASSERT_TRUE(solver.AddClause({Lit::Neg(a), Lit::Pos(c)}));
  ASSERT_TRUE(solver.AddClause({Lit::Neg(a), Lit::Neg(c)}));
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
  EXPECT_GT(solver.stats().conflicts, 0u);
  EXPECT_GT(solver.stats().binary_propagations, 0u);
}

TEST(SolverTest, GcKeepsBinaryReasonsIntact) {
  // Pigeonhole formulas are dominated by binary at-most-one clauses, so a
  // long run exercises arena GC while binary-tagged reasons sit on the
  // trail across many decision levels.
  Solver solver;
  ASSERT_TRUE(solver.AddCnf(testutil::PigeonholeCnf(8)));
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
  EXPECT_GT(solver.stats().gc_runs, 0u);
  EXPECT_GT(solver.stats().binary_propagations, 0u);
}

TEST(SolverInvariantsTest, HoldOnFreshSolver) {
  Solver solver;
  std::string error;
  EXPECT_TRUE(solver.CheckInvariants(&error)) << error;
  solver.NewVar();
  solver.NewVar();
  EXPECT_TRUE(solver.CheckInvariants(&error)) << error;
}

TEST(SolverInvariantsTest, HoldAfterAddingClauses) {
  Solver solver;
  ASSERT_TRUE(solver.AddCnf(testutil::PigeonholeCnf(5)));
  std::string error;
  EXPECT_TRUE(solver.CheckInvariants(&error)) << error;
}

TEST(SolverInvariantsTest, HoldAfterUnsatSolve) {
  Solver solver;
  ASSERT_TRUE(solver.AddCnf(testutil::PigeonholeCnf(6)));
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
  std::string error;
  EXPECT_TRUE(solver.CheckInvariants(&error)) << error;
}

TEST(SolverInvariantsTest, HoldAfterSatSolveAndRandomFormulas) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    Solver solver;
    const Cnf cnf = testutil::RandomCnf(rng, 30, 80);
    if (!solver.AddCnf(cnf)) continue;
    solver.Solve();
    std::string error;
    ASSERT_TRUE(solver.CheckInvariants(&error)) << error;
  }
}

TEST(SolverInvariantsTest, HoldBetweenAssumptionSolves) {
  // Satisfiable formula in which assuming x0 forces a conflict by
  // propagation, so each round alternates assumption-UNSAT and SAT results
  // while the solver itself stays consistent.
  Cnf cnf(3);
  cnf.AddBinary(Lit::Neg(0), Lit::Pos(1));
  cnf.AddBinary(Lit::Neg(1), Lit::Pos(2));
  cnf.AddBinary(Lit::Neg(2), Lit::Neg(0));
  Solver solver;
  ASSERT_TRUE(solver.AddCnf(cnf));
  std::string error;
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(solver.SolveWithAssumptions({Lit::Pos(0)}),
              SolveResult::kUnsat);
    ASSERT_TRUE(solver.okay());
    ASSERT_TRUE(solver.CheckInvariants(&error)) << error;
    EXPECT_EQ(solver.SolveWithAssumptions({Lit::Neg(0)}),
              SolveResult::kSat);
    ASSERT_TRUE(solver.okay());
    ASSERT_TRUE(solver.CheckInvariants(&error)) << error;
  }
}

TEST(SolverInvariantsTest, DebugOptionChecksAtRestartBoundaries) {
  // Pigeonhole PHP(7, 6) needs thousands of conflicts, so the restart loop
  // (and with it the debug invariant scan) runs many times.
  SolverOptions options;
  options.debug_check_invariants = true;
  Solver solver(options);
  ASSERT_TRUE(solver.AddCnf(testutil::PigeonholeCnf(6)));
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
  EXPECT_GT(solver.stats().restarts, 1u);
}

}  // namespace
}  // namespace satfr::sat
