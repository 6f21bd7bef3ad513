#include <gtest/gtest.h>

#include "graph/coloring_bounds.h"
#include "test_util.h"

namespace satfr::graph {
namespace {

Graph Cycle(int n) {
  Graph g(n);
  for (VertexId v = 0; v < n; ++v) g.AddEdge(v, (v + 1) % n);
  return g;
}

Graph Complete(int n) {
  Graph g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  return g;
}

Graph Petersen() {
  Graph g(10);
  for (VertexId v = 0; v < 5; ++v) {
    g.AddEdge(v, (v + 1) % 5);      // outer cycle
    g.AddEdge(v + 5, (v + 2) % 5 + 5);  // inner pentagram
    g.AddEdge(v, v + 5);            // spokes
  }
  return g;
}

TEST(DsaturTest, ProducesProperColorings) {
  Rng rng(808);
  for (int i = 0; i < 30; ++i) {
    const Graph g = testutil::RandomGraph(rng, 20, 0.3);
    const auto colors = DsaturColoring(g);
    EXPECT_TRUE(g.IsProperColoring(colors, NumColorsUsed(colors)));
  }
}

TEST(DsaturTest, BipartiteUsesTwoColors) {
  // Even cycles are bipartite; DSATUR is exact on them.
  for (int n : {4, 6, 8, 10}) {
    EXPECT_EQ(NumColorsUsed(DsaturColoring(Cycle(n))), 2) << "C" << n;
  }
}

TEST(DsaturTest, EdgelessUsesOneColor) {
  const Graph g(5);
  EXPECT_EQ(NumColorsUsed(DsaturColoring(g)), 1);
}

TEST(DsaturTest, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(NumColorsUsed(DsaturColoring(g)), 0);
}

TEST(CliqueBoundTest, FindsCompleteGraphs) {
  for (int n : {2, 3, 5, 7}) {
    EXPECT_EQ(GreedyCliqueLowerBound(Complete(n)), n);
  }
}

TEST(CliqueBoundTest, TriangleInsideSparseGraph) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);  // triangle 0-1-2
  g.AddEdge(3, 4);
  EXPECT_GE(GreedyCliqueLowerBound(g), 3);
}

TEST(ExactColoringTest, KnownChromaticNumbers) {
  EXPECT_EQ(ChromaticNumberExact(Complete(4)), 4);
  EXPECT_EQ(ChromaticNumberExact(Cycle(5)), 3);   // odd cycle
  EXPECT_EQ(ChromaticNumberExact(Cycle(6)), 2);   // even cycle
  EXPECT_EQ(ChromaticNumberExact(Petersen()), 3);
  EXPECT_EQ(ChromaticNumberExact(Graph(4)), 1);   // edgeless
  EXPECT_EQ(ChromaticNumberExact(Graph()), 0);    // empty
}

TEST(ExactColoringTest, IsKColorableMonotone) {
  const Graph g = Petersen();
  EXPECT_FALSE(IsKColorableExact(g, 2));
  EXPECT_TRUE(IsKColorableExact(g, 3));
  EXPECT_TRUE(IsKColorableExact(g, 4));
  EXPECT_FALSE(IsKColorableExact(g, 0));
}

TEST(BoundsTest, SandwichProperty) {
  Rng rng(909);
  for (int i = 0; i < 20; ++i) {
    const Graph g = testutil::RandomGraph(rng, 12, 0.4);
    const int lower = GreedyCliqueLowerBound(g);
    const int exact = ChromaticNumberExact(g);
    const int upper = NumColorsUsed(DsaturColoring(g));
    EXPECT_LE(lower, exact);
    EXPECT_LE(exact, upper);
  }
}

}  // namespace
}  // namespace satfr::graph
