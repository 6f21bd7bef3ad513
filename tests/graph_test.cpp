#include <gtest/gtest.h>

#include "graph/graph.h"

namespace satfr::graph {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
}

TEST(GraphTest, AddVertexGrows) {
  Graph g;
  EXPECT_EQ(g.AddVertex(), 0);
  EXPECT_EQ(g.AddVertex(), 1);
  EXPECT_EQ(g.num_vertices(), 2);
}

TEST(GraphTest, AddEdgeBasics) {
  Graph g(3);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphTest, DuplicateEdgeRejected) {
  Graph g(3);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
}

TEST(GraphTest, SelfLoopIgnored) {
  Graph g(2);
  EXPECT_FALSE(g.AddEdge(1, 1));
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphTest, DegreesAndMaxDegree) {
  Graph g(4);  // star centered at 0
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  EXPECT_EQ(g.Degree(0), 3u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.MaxDegree(), 3u);
}

TEST(GraphTest, NeighborDegreeSum) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  // Neighbors of 0 are {1 (deg 2), 2 (deg 3)}.
  EXPECT_EQ(g.NeighborDegreeSum(0), 5u);
  // Neighbors of 3 are {2 (deg 3)}.
  EXPECT_EQ(g.NeighborDegreeSum(3), 3u);
}

TEST(GraphTest, EdgesSortedCanonical) {
  Graph g(4);
  g.AddEdge(3, 1);
  g.AddEdge(2, 0);
  const auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], std::make_pair(VertexId{0}, VertexId{2}));
  EXPECT_EQ(edges[1], std::make_pair(VertexId{1}, VertexId{3}));
}

TEST(GraphTest, HasEdgeOutOfRangeIsFalse) {
  Graph g(2);
  EXPECT_FALSE(g.HasEdge(-1, 0));
  EXPECT_FALSE(g.HasEdge(0, 5));
}

TEST(GraphTest, ProperColoringCheck) {
  Graph g(3);  // path 0 - 1 - 2
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const struct {
    const char* name;
    std::vector<int> colors;
    bool proper;
  } cases[] = {
      {"too short", {0, 1}, false},
      {"too long", {0, 1, 0, 1}, false},
      {"track equal to the width", {0, 2, 0}, false},
      {"unassigned (-1) entry", {0, 1, -1}, false},
      {"one improper edge", {0, 1, 1}, false},
      {"valid", {1, 0, 1}, true},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(g.IsProperColoring(c.colors, /*num_colors=*/2), c.proper)
        << c.name;
  }
}

TEST(GraphTest, ProperColoringOnEdgelessGraph) {
  Graph g(3);
  EXPECT_TRUE(g.IsProperColoring({0, 0, 0}, 1));
}

}  // namespace
}  // namespace satfr::graph
