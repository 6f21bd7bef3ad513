// Tests of the b1 / s1 symmetry-breaking heuristics (§5) and of the
// soundness of the color restriction (satisfiability preservation).
#include <gtest/gtest.h>

#include <set>

#include "encode/csp_to_cnf.h"
#include "encode/registry.h"
#include "graph/coloring_bounds.h"
#include "sat/solver.h"
#include "symmetry/symmetry.h"
#include "test_util.h"

namespace satfr::symmetry {
namespace {

using graph::Graph;
using graph::VertexId;

// Star with an attached path: degrees 0:4(center), others small.
Graph StarPlusPath() {
  Graph g(7);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(0, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 6);
  return g;
}

TEST(SymmetryTest, NoneGivesEmptySequence) {
  EXPECT_TRUE(SymmetrySequence(StarPlusPath(), 4, Heuristic::kNone).empty());
}

TEST(SymmetryTest, DegenerateCases) {
  EXPECT_TRUE(SymmetrySequence(Graph(), 4, Heuristic::kS1).empty());
  EXPECT_TRUE(SymmetrySequence(StarPlusPath(), 1, Heuristic::kS1).empty());
  EXPECT_TRUE(SymmetrySequence(StarPlusPath(), 0, Heuristic::kB1).empty());
}

TEST(SymmetryTest, B1StartsAtMaxDegreeThenNeighbors) {
  const Graph g = StarPlusPath();
  const auto seq = SymmetrySequence(g, 4, Heuristic::kB1);
  // K-1 = 3 vertices: center 0, then its neighbors by degree:
  // 4 (degree 2) before 1/2/3 (degree 1).
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0], 0);
  EXPECT_EQ(seq[1], 4);
  // Third entry is one of the degree-1 neighbors; ties by neighbor degree
  // sum (all equal: 4) then by id -> vertex 1.
  EXPECT_EQ(seq[2], 1);
}

TEST(SymmetryTest, B1OnlyUsesSeedAndItsNeighbors) {
  const Graph g = StarPlusPath();
  const auto seq = SymmetrySequence(g, 7, Heuristic::kB1);
  // Even with a large K, b1 can only pick the seed plus its 4 neighbors.
  EXPECT_LE(seq.size(), 5u);
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_TRUE(g.HasEdge(seq[0], seq[i]));
  }
}

TEST(SymmetryTest, S1PicksGloballyHighestDegrees) {
  const Graph g = StarPlusPath();
  const auto seq = SymmetrySequence(g, 4, Heuristic::kS1);
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0], 0);  // degree 4
  // Degree-2 vertices are 4 and 5; tie broken by neighbor degree sum:
  // 4's neighbors {0,5} sum 6; 5's neighbors {4,6} sum 3.
  EXPECT_EQ(seq[1], 4);
  EXPECT_EQ(seq[2], 5);
}

TEST(SymmetryTest, SequencesHaveDistinctVertices) {
  Rng rng(4242);
  for (int i = 0; i < 20; ++i) {
    const Graph g = testutil::RandomGraph(rng, 15, 0.3);
    for (const Heuristic h : {Heuristic::kB1, Heuristic::kS1}) {
      const auto seq = SymmetrySequence(g, 6, h);
      EXPECT_LE(seq.size(), 5u);
      const std::set<VertexId> unique(seq.begin(), seq.end());
      EXPECT_EQ(unique.size(), seq.size());
      for (const VertexId v : seq) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, g.num_vertices());
      }
    }
  }
}

TEST(SymmetryTest, RenamingTheoremHoldsForProperColorings) {
  // Van Gelder's argument: *any* proper coloring can be renamed to satisfy
  // the restriction, for any vertex sequence. Exercise it on random graphs
  // and random DSATUR colorings.
  Rng rng(515);
  for (int i = 0; i < 25; ++i) {
    const Graph g = testutil::RandomGraph(rng, 12, 0.4);
    const auto colors = graph::DsaturColoring(g);
    const int k = graph::NumColorsUsed(colors) + static_cast<int>(
                      rng.NextBelow(3));
    for (const Heuristic h : {Heuristic::kB1, Heuristic::kS1}) {
      const auto seq = SymmetrySequence(g, k, h);
      EXPECT_TRUE(ColoringRespectsSequenceUpToRenaming(colors, k, seq));
    }
  }
}

// The load-bearing soundness property: adding symmetry clauses never
// changes satisfiability, for every encoding and both heuristics.
class SymmetrySoundnessTest
    : public ::testing::TestWithParam<std::tuple<std::string, Heuristic>> {};

TEST_P(SymmetrySoundnessTest, PreservesSatisfiability) {
  const auto& [encoding_name, heuristic] = GetParam();
  const encode::EncodingSpec spec = encode::GetEncoding(encoding_name);
  Rng rng(StableHash64(encoding_name) + static_cast<int>(heuristic));
  for (int i = 0; i < 5; ++i) {
    const Graph g = testutil::RandomGraph(rng, 9, 0.4);
    const int chi = graph::ChromaticNumberExact(g);
    for (const int k : {chi - 1, chi, chi + 1}) {
      if (k < 1) continue;
      const auto seq = SymmetrySequence(g, k, heuristic);
      const encode::EncodedColoring enc = EncodeColoring(g, k, spec, seq);
      sat::Solver solver;
      sat::SolveResult result = sat::SolveResult::kUnsat;
      if (solver.AddCnf(enc.cnf)) result = solver.Solve();
      EXPECT_EQ(result == sat::SolveResult::kSat, k >= chi)
          << encoding_name << "/" << ToString(heuristic) << " K=" << k
          << " chi=" << chi;
      if (result == sat::SolveResult::kSat) {
        const auto colors = DecodeColoring(enc, solver.model());
        EXPECT_TRUE(g.IsProperColoring(colors, k));
        // The restriction itself must hold in the decoded coloring.
        for (std::size_t j = 0; j < seq.size(); ++j) {
          EXPECT_LE(colors[static_cast<std::size_t>(seq[j])],
                    static_cast<int>(j));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Encodings, SymmetrySoundnessTest,
    ::testing::Combine(::testing::ValuesIn(encode::AllEncodingNames()),
                       ::testing::Values(Heuristic::kB1, Heuristic::kS1)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, Heuristic>>&
           info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name + "_" +
             (std::get<1>(info.param) == Heuristic::kB1 ? "b1" : "s1");
    });

TEST(SymmetryTest, RenamingCheckRejectsInvalidColors) {
  Graph g(3);
  g.AddEdge(0, 1);
  const std::vector<VertexId> seq{0, 1};
  EXPECT_FALSE(ColoringRespectsSequenceUpToRenaming({-1, 0, 0}, 3, seq));
  EXPECT_FALSE(ColoringRespectsSequenceUpToRenaming({5, 0, 0}, 3, seq));
}

TEST(SymmetryTest, SequenceNeverExceedsKMinusOne) {
  Rng rng(626);
  const Graph g = testutil::RandomGraph(rng, 30, 0.5);
  for (int k = 2; k <= 10; ++k) {
    for (const Heuristic h : {Heuristic::kB1, Heuristic::kS1}) {
      EXPECT_LE(SymmetrySequence(g, k, h).size(),
                static_cast<std::size_t>(k - 1));
    }
  }
}

TEST(SymmetryTest, NameRoundTrip) {
  EXPECT_EQ(HeuristicFromName("b1"), Heuristic::kB1);
  EXPECT_EQ(HeuristicFromName("s1"), Heuristic::kS1);
  EXPECT_EQ(HeuristicFromName("none"), Heuristic::kNone);
  EXPECT_EQ(HeuristicFromName("-"), Heuristic::kNone);
  EXPECT_STREQ(ToString(Heuristic::kB1), "b1");
  EXPECT_STREQ(ToString(Heuristic::kS1), "s1");
  EXPECT_STREQ(ToString(Heuristic::kNone), "-");
}

TEST(SymmetryTest, UnknownNamesAreRejected) {
  for (const char* name : {"bogus", "", "S1", "b2", "none "}) {
    EXPECT_FALSE(HeuristicFromName(name).has_value()) << "'" << name << "'";
  }
}

}  // namespace
}  // namespace satfr::symmetry
