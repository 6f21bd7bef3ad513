// End-to-end coloring->CNF tests: equisatisfiability of all encodings with
// the exact chromatic number, and decodability of models into proper
// colorings.
#include <gtest/gtest.h>

#include "encode/csp_to_cnf.h"
#include "encode/registry.h"
#include "graph/coloring_bounds.h"
#include "sat/solver.h"
#include "test_util.h"

namespace satfr::encode {
namespace {

sat::SolveResult SolveColoring(const graph::Graph& g, int k,
                               const EncodingSpec& spec,
                               std::vector<int>* colors_out = nullptr) {
  const EncodedColoring encoded = EncodeColoring(g, k, spec);
  sat::Solver solver;
  if (!solver.AddCnf(encoded.cnf)) return sat::SolveResult::kUnsat;
  const sat::SolveResult result = solver.Solve();
  if (result == sat::SolveResult::kSat && colors_out) {
    *colors_out = DecodeColoring(encoded, solver.model());
  }
  return result;
}

graph::Graph Triangle() {
  graph::Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  return g;
}

TEST(CspToCnfTest, TriangleNeedsThreeColors) {
  const graph::Graph g = Triangle();
  for (const EncodingSpec& spec : AllEncodings()) {
    EXPECT_EQ(SolveColoring(g, 2, spec), sat::SolveResult::kUnsat)
        << spec.name;
    std::vector<int> colors;
    EXPECT_EQ(SolveColoring(g, 3, spec, &colors), sat::SolveResult::kSat)
        << spec.name;
    EXPECT_TRUE(g.IsProperColoring(colors, 3)) << spec.name;
  }
}

TEST(CspToCnfTest, EdgelessGraphOneColor) {
  const graph::Graph g(4);
  for (const EncodingSpec& spec : AllEncodings()) {
    std::vector<int> colors;
    EXPECT_EQ(SolveColoring(g, 1, spec, &colors), sat::SolveResult::kSat)
        << spec.name;
    EXPECT_EQ(colors, (std::vector<int>{0, 0, 0, 0})) << spec.name;
  }
}

TEST(CspToCnfTest, SingleEdgeOneColorUnsat) {
  graph::Graph g(2);
  g.AddEdge(0, 1);
  for (const EncodingSpec& spec : AllEncodings()) {
    EXPECT_EQ(SolveColoring(g, 1, spec), sat::SolveResult::kUnsat)
        << spec.name;
  }
}

TEST(CspToCnfTest, StatsCountClauseCategories) {
  graph::Graph g(3);
  g.AddEdge(0, 1);
  const EncodedColoring enc = EncodeColoring(g, 4, GetEncoding("direct"));
  // 3 vertices x (1 ALO + 6 AMO) structural, 1 edge x 4 conflict clauses.
  EXPECT_EQ(enc.stats.structural_clauses, 21u);
  EXPECT_EQ(enc.stats.conflict_clauses, 4u);
  EXPECT_EQ(enc.stats.symmetry_clauses, 0u);
  EXPECT_EQ(enc.cnf.num_clauses(), 25u);
  EXPECT_EQ(enc.cnf.num_vars(), 12);
}

TEST(CspToCnfTest, VertexOffsetsAreContiguousBlocks) {
  graph::Graph g(3);
  g.AddEdge(0, 1);
  const EncodedColoring enc =
      EncodeColoring(g, 5, GetEncoding("ITE-linear"));
  EXPECT_EQ(enc.domain.num_vars, 4);
  EXPECT_EQ(enc.vertex_offset, (std::vector<int>{0, 4, 8}));
}

TEST(CspToCnfTest, SymmetryClausesAreCounted) {
  graph::Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  const std::vector<graph::VertexId> sequence{1, 2};
  const EncodedColoring enc =
      EncodeColoring(g, 4, GetEncoding("muldirect"), sequence);
  // Vertex 1 (position 1) loses colors 1..3 -> 3 clauses; vertex 2
  // (position 2) loses colors 2..3 -> 2 clauses.
  EXPECT_EQ(enc.stats.symmetry_clauses, 5u);
}

TEST(CspToCnfTest, DecodeReturnsMinusOneOnGarbageModel) {
  graph::Graph g(1);
  const EncodedColoring enc = EncodeColoring(g, 3, GetEncoding("direct"));
  // All-false assignment selects no value under the direct encoding.
  const std::vector<bool> garbage(static_cast<std::size_t>(
                                      enc.cnf.num_vars()),
                                  false);
  EXPECT_EQ(DecodeColoring(enc, garbage), (std::vector<int>{-1}));
}

// Property: every encoding agrees with the exact chromatic number on random
// graphs, at K = chi-1 (UNSAT), K = chi (SAT), and K = chi+1 (SAT), and all
// SAT models decode to proper colorings.
class EncodingEquisatTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EncodingEquisatTest, MatchesExactChromaticNumber) {
  const EncodingSpec spec = GetEncoding(GetParam());
  Rng rng(StableHash64(GetParam()));
  for (int i = 0; i < 6; ++i) {
    const graph::Graph g = testutil::RandomGraph(rng, 10, 0.35);
    const int chi = graph::ChromaticNumberExact(g);
    if (chi >= 2) {
      EXPECT_EQ(SolveColoring(g, chi - 1, spec), sat::SolveResult::kUnsat)
          << "K=chi-1, iteration " << i;
    }
    std::vector<int> colors;
    EXPECT_EQ(SolveColoring(g, chi, spec, &colors), sat::SolveResult::kSat)
        << "K=chi, iteration " << i;
    EXPECT_TRUE(g.IsProperColoring(colors, chi));
    for (const int c : colors) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, chi);
    }
    std::vector<int> colors_plus;
    EXPECT_EQ(SolveColoring(g, chi + 1, spec, &colors_plus),
              sat::SolveResult::kSat)
        << "K=chi+1, iteration " << i;
    EXPECT_TRUE(g.IsProperColoring(colors_plus, chi + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, EncodingEquisatTest,
    ::testing::ValuesIn(AllEncodingNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace satfr::encode
