#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "encode/csp_to_cnf.h"
#include "encode/registry.h"
#include "flow/conflict_graph.h"
#include "fpga/device_graph.h"
#include "netlist/mcnc_suite.h"
#include "route/global_router.h"
#include "sat/brute_force.h"
#include "sat/clause_sink.h"
#include "sat/solver.h"
#include "symmetry/symmetry.h"
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

constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/// FNV-1a mix of the search signature: what a solve decided, derived and
/// propagated. Equal signatures mean the same search.
void MixSearchSignature(SolveResult status, const SolverStats& stats,
                        std::uint64_t* hash) {
  const auto mix = [hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      *hash ^= (value >> (8 * byte)) & 0xffu;
      *hash *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(status));
  mix(stats.conflicts);
  mix(stats.decisions);
  mix(stats.propagations);
  mix(stats.binary_propagations);
}

// Pins the search on Table-2 cells at W*-1 (UNSAT) and W* (SAT) under each
// paper strategy, with the formula loaded both by streaming the encoder
// into the solver and by AddCnf of the materialized CNF. A change to how
// clauses are loaded or stored must leave every search as it was; a
// change that alters the search must update the recorded value on purpose.
TEST(SolverTest, SearchMatchesRecordedDigest) {
  struct Cell {
    const char* circuit;
    int min_width;  // W*
  };
  struct Strategy {
    const char* encoding;
    symmetry::Heuristic heuristic;
  };
  const Cell cells[] = {{"alu2", 6}, {"too_large", 8}};
  const Strategy strategies[] = {
      {"muldirect", symmetry::Heuristic::kS1},
      {"ITE-linear-2+muldirect", symmetry::Heuristic::kS1},
      {"muldirect", symmetry::Heuristic::kB1}};
  std::uint64_t hash = kFnvOffsetBasis;
  for (const Cell& cell : cells) {
    const netlist::McncBenchmark bench =
        netlist::GenerateMcncBenchmark(cell.circuit);
    const fpga::Arch arch(bench.params.grid_size);
    const fpga::DeviceGraph device(arch);
    const graph::Graph g = flow::BuildConflictGraph(
        arch, route::RouteGlobally(device, bench.netlist, bench.placement));
    for (const Strategy& strategy : strategies) {
      const encode::EncodingSpec& spec = encode::GetEncoding(strategy.encoding);
      for (const int width : {cell.min_width - 1, cell.min_width}) {
        const std::vector<graph::VertexId> sequence =
            symmetry::SymmetrySequence(g, width, strategy.heuristic);
        const std::string label = std::string(cell.circuit) + " " +
                                  strategy.encoding + "/" +
                                  symmetry::ToString(strategy.heuristic) +
                                  " W=" + std::to_string(width);

        Solver streamed(SolverOptions::SiegeLike());
        SolverSink sink(streamed);
        encode::EncodeColoringToSink(g, width, spec, sequence, sink);
        ASSERT_TRUE(sink.Finish()) << label;
        const SolveResult streamed_status = streamed.Solve();
        EXPECT_EQ(streamed_status, width < cell.min_width ? SolveResult::kUnsat
                                                          : SolveResult::kSat)
            << label;

        Solver loaded(SolverOptions::SiegeLike());
        ASSERT_TRUE(loaded.AddCnf(
            encode::EncodeColoring(g, width, spec, sequence).cnf))
            << label;
        const SolveResult loaded_status = loaded.Solve();

        std::uint64_t streamed_hash = kFnvOffsetBasis;
        std::uint64_t loaded_hash = kFnvOffsetBasis;
        MixSearchSignature(streamed_status, streamed.stats(), &streamed_hash);
        MixSearchSignature(loaded_status, loaded.stats(), &loaded_hash);
        EXPECT_EQ(streamed_hash, loaded_hash) << label;
        MixSearchSignature(streamed_status, streamed.stats(), &hash);
        MixSearchSignature(loaded_status, loaded.stats(), &hash);
      }
    }
  }
  EXPECT_EQ(hash, 0xf9925820481b46edull) << "0x" << std::hex << hash;
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
  std::atomic<bool> stop{false};
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

}  // namespace
}  // namespace satfr::sat
