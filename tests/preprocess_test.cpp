#include <gtest/gtest.h>

#include "encode/csp_to_cnf.h"
#include "encode/registry.h"
#include "sat/brute_force.h"
#include "sat/preprocess.h"
#include "sat/solver.h"
#include "symmetry/symmetry.h"
#include "test_util.h"

namespace satfr::sat {
namespace {

TEST(PreprocessTest, UnitPropagationForces) {
  Cnf cnf(3);
  cnf.AddUnit(Lit::Pos(0));
  cnf.AddBinary(Lit::Neg(0), Lit::Pos(1));   // forces x1
  cnf.AddBinary(Lit::Neg(1), Lit::Neg(2));   // forces ~x2
  const PreprocessResult result = Preprocess(cnf);
  EXPECT_FALSE(result.contradiction);
  EXPECT_EQ(result.forced[0], LBool::kTrue);
  EXPECT_EQ(result.forced[1], LBool::kTrue);
  EXPECT_EQ(result.forced[2], LBool::kFalse);
  EXPECT_EQ(result.stats.forced_units, 3u);
}

TEST(PreprocessTest, DetectsContradiction) {
  Cnf cnf(2);
  cnf.AddUnit(Lit::Pos(0));
  cnf.AddBinary(Lit::Neg(0), Lit::Pos(1));
  cnf.AddBinary(Lit::Neg(0), Lit::Neg(1));
  const PreprocessResult result = Preprocess(cnf);
  EXPECT_TRUE(result.contradiction);
  EXPECT_FALSE(SolveByDpll(result.simplified).has_value());
}

TEST(PreprocessTest, SubsumptionRemovesSupersets) {
  Cnf cnf(3);
  cnf.AddBinary(Lit::Pos(0), Lit::Pos(1));
  cnf.AddTernary(Lit::Pos(0), Lit::Pos(1), Lit::Pos(2));  // subsumed
  const PreprocessResult result = Preprocess(cnf);
  EXPECT_EQ(result.stats.removed_subsumed, 1u);
  EXPECT_EQ(result.simplified.num_clauses(), 1u);
}

TEST(PreprocessTest, DuplicateClausesCollapse) {
  Cnf cnf(2);
  cnf.AddBinary(Lit::Pos(0), Lit::Pos(1));
  cnf.AddBinary(Lit::Pos(1), Lit::Pos(0));  // same clause, reordered
  const PreprocessResult result = Preprocess(cnf);
  EXPECT_EQ(result.simplified.num_clauses(), 1u);
}

TEST(PreprocessTest, SelfSubsumingResolutionStrengthens) {
  // (a | b) and (a | ~b | c): resolving on b strengthens the second
  // clause to (a | c).
  Cnf cnf(3);
  cnf.AddBinary(Lit::Pos(0), Lit::Pos(1));
  cnf.AddTernary(Lit::Pos(0), Lit::Neg(1), Lit::Pos(2));
  const PreprocessResult result = Preprocess(cnf);
  EXPECT_GE(result.stats.strengthened_literals, 1u);
  bool found = false;
  for (const Clause& clause : result.simplified.clauses()) {
    if (clause == Clause{Lit::Pos(0), Lit::Pos(2)}) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PreprocessTest, TautologiesDropped) {
  Cnf cnf(2);
  cnf.AddBinary(Lit::Pos(0), Lit::Neg(0));
  const PreprocessResult result = Preprocess(cnf);
  EXPECT_EQ(result.simplified.num_clauses(), 0u);
}

TEST(PreprocessTest, EquisatisfiableOnRandomFormulas) {
  Rng rng(424242);
  int sat_count = 0;
  int unsat_count = 0;
  for (int i = 0; i < 60; ++i) {
    const Cnf cnf = testutil::RandomCnf(rng, 12, 26, 4);
    const bool original_sat = SolveByDpll(cnf).has_value();
    const PreprocessResult result = Preprocess(cnf);
    const auto simplified_model = SolveByDpll(result.simplified);
    EXPECT_EQ(simplified_model.has_value(), original_sat)
        << "iteration " << i;
    original_sat ? ++sat_count : ++unsat_count;
    if (simplified_model) {
      std::vector<bool> padded = *simplified_model;
      padded.resize(static_cast<std::size_t>(cnf.num_vars()), false);
      const auto model = ReconstructModel(result, padded);
      EXPECT_TRUE(cnf.IsSatisfiedBy(model)) << "iteration " << i;
    }
  }
  EXPECT_GT(sat_count, 0);
  EXPECT_GT(unsat_count, 0);
}

TEST(PreprocessTest, ColoringCnfsShrinkUnderSymmetryUnits) {
  // Symmetry restrictions on the direct/muldirect encodings are unit
  // clauses; preprocessing must cascade them and shrink the formula while
  // preserving the answer.
  Rng rng(434343);
  const graph::Graph g = testutil::RandomGraph(rng, 14, 0.4);
  const int k = 5;
  const auto sequence =
      symmetry::SymmetrySequence(g, k, symmetry::Heuristic::kS1);
  const encode::EncodedColoring enc = encode::EncodeColoring(
      g, k, encode::GetEncoding("muldirect"), sequence);
  const PreprocessResult result = Preprocess(enc.cnf);
  EXPECT_LT(result.simplified.num_literals(), enc.cnf.num_literals());

  Solver original_solver;
  SolveResult original = SolveResult::kUnsat;
  if (original_solver.AddCnf(enc.cnf)) original = original_solver.Solve();
  Solver simplified_solver;
  SolveResult simplified = SolveResult::kUnsat;
  if (simplified_solver.AddCnf(result.simplified)) {
    simplified = simplified_solver.Solve();
  }
  EXPECT_EQ(original, simplified);
  if (simplified == SolveResult::kSat) {
    const auto model =
        ReconstructModel(result, simplified_solver.model());
    const auto colors = DecodeColoring(enc, model);
    EXPECT_TRUE(g.IsProperColoring(colors, k));
  }
}

TEST(PreprocessTest, OptionsDisableStages) {
  Cnf cnf(3);
  cnf.AddBinary(Lit::Pos(0), Lit::Pos(1));
  cnf.AddTernary(Lit::Pos(0), Lit::Pos(1), Lit::Pos(2));
  PreprocessOptions options;
  options.subsumption = false;
  options.self_subsumption = false;
  const PreprocessResult result = Preprocess(cnf, options);
  EXPECT_EQ(result.stats.removed_subsumed, 0u);
  EXPECT_EQ(result.simplified.num_clauses(), 2u);
}

TEST(PreprocessTest, EmptyFormula) {
  const PreprocessResult result = Preprocess(Cnf(4));
  EXPECT_FALSE(result.contradiction);
  EXPECT_EQ(result.simplified.num_clauses(), 0u);
  EXPECT_EQ(result.simplified.num_vars(), 4);
}

}  // namespace
}  // namespace satfr::sat
