#include <gtest/gtest.h>

#include <utility>

#include "graph/coloring_bounds.h"
#include "route/greedy_track_assigner.h"
#include "test_util.h"

namespace satfr::route {
namespace {

graph::Graph Complete(int n) {
  graph::Graph g(n);
  for (graph::VertexId u = 0; u < n; ++u) {
    for (graph::VertexId v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  return g;
}

TEST(GreedyTrackTest, EdgelessGraphOneTrack) {
  const graph::Graph g(5);
  const GreedyAssignResult result = GreedyAssignTracks(g, 1);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.tracks, (std::vector<int>{0, 0, 0, 0, 0}));
}

TEST(GreedyTrackTest, CompleteGraphNeedsNTracks) {
  const graph::Graph g = Complete(5);
  EXPECT_FALSE(GreedyAssignTracks(g, 4).success);
  const GreedyAssignResult result = GreedyAssignTracks(g, 5);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(g.IsProperColoring(result.tracks, 5));
}

TEST(GreedyTrackTest, SuccessImpliesProperColoring) {
  Rng rng(77001);
  GreedyAssignOptions with_ripup;
  with_ripup.max_ripups = 50;
  for (int i = 0; i < 30; ++i) {
    const graph::Graph g = testutil::RandomGraph(rng, 25, 0.3);
    const int dsatur = graph::NumColorsUsed(graph::DsaturColoring(g));
    // Rip-ups run below the DSATUR width too, where they have to evict.
    for (const auto& [width, options] :
         {std::pair{dsatur + 1, GreedyAssignOptions{}},
          std::pair{dsatur, with_ripup}, std::pair{dsatur - 1, with_ripup}}) {
      const GreedyAssignResult result = GreedyAssignTracks(g, width, options);
      if (result.success) {
        EXPECT_TRUE(g.IsProperColoring(result.tracks, width))
            << "graph " << i << ", width " << width;
        EXPECT_EQ(result.unassigned, 0);
      }
    }
  }
}

TEST(GreedyTrackTest, RipupEvictsEveryHolderOfTheTrack) {
  // Degrees order the nets x, c, d, a, b, v: x takes track 0, c and d
  // (x's neighbours) track 1, a and b track 0. v meets both tracks held by
  // two nets each; clearing track 0 means evicting both a and b.
  enum : graph::VertexId { x, c, d, a, b, v };
  graph::Graph g(6);
  for (const auto& [p, q] :
       {std::pair{x, c}, {x, d}, {v, a}, {v, b}, {v, c}, {v, d}}) {
    g.AddEdge(p, q);
  }
  for (const auto& [hub, leaves] :
       {std::pair{x, 5}, {c, 4}, {d, 4}, {a, 4}, {b, 4}}) {
    for (int i = 0; i < leaves; ++i) g.AddEdge(hub, g.AddVertex());
  }
  GreedyAssignOptions options;
  options.max_ripups = 10;
  const GreedyAssignResult result = GreedyAssignTracks(g, 2, options);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.ripups, 2);
  EXPECT_TRUE(g.IsProperColoring(result.tracks, 2));
}

TEST(GreedyTrackTest, FailureReportsUnassignedCount) {
  const graph::Graph g = Complete(6);
  const GreedyAssignResult result = GreedyAssignTracks(g, 3);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.unassigned, 3);  // 3 of 6 clique members fit in 3 tracks
}

TEST(GreedyTrackTest, RipupsCanOnlyHelp) {
  Rng rng(77002);
  for (int i = 0; i < 20; ++i) {
    const graph::Graph g = testutil::RandomGraph(rng, 20, 0.4);
    const int chi = graph::ChromaticNumberExact(g);
    GreedyAssignOptions no_ripup;
    GreedyAssignOptions with_ripup;
    with_ripup.max_ripups = 50;
    const int width_plain = GreedyMinimumWidth(g, chi, no_ripup);
    const int width_ripup = GreedyMinimumWidth(g, chi, with_ripup);
    ASSERT_GT(width_plain, 0);
    ASSERT_GT(width_ripup, 0);
    EXPECT_LE(width_ripup, width_plain);
  }
}

TEST(GreedyTrackTest, GreedyWidthIsUpperBoundOnChromatic) {
  // The SAT router's W* equals the chromatic number; greedy can only match
  // or exceed it. This is the paper's qualitative claim about
  // one-net-at-a-time routers.
  Rng rng(77003);
  int strictly_worse = 0;
  for (int i = 0; i < 25; ++i) {
    const graph::Graph g = testutil::RandomGraph(rng, 18, 0.45);
    const int chi = graph::ChromaticNumberExact(g);
    const int greedy = GreedyMinimumWidth(g, 1);
    ASSERT_GT(greedy, 0);
    EXPECT_GE(greedy, chi);
    if (greedy > chi) ++strictly_worse;
  }
  // On dense-ish random graphs greedy should lose at least occasionally —
  // otherwise this baseline would be pointless.
  EXPECT_GT(strictly_worse, 0);
}

TEST(GreedyTrackTest, Deterministic) {
  Rng rng(77004);
  const graph::Graph g = testutil::RandomGraph(rng, 30, 0.3);
  const GreedyAssignResult a = GreedyAssignTracks(g, 5);
  const GreedyAssignResult b = GreedyAssignTracks(g, 5);
  EXPECT_EQ(a.tracks, b.tracks);
  EXPECT_EQ(a.success, b.success);
}

TEST(GreedyTrackTest, MinWidthHonorsMaxWidth) {
  const graph::Graph g = Complete(8);
  EXPECT_EQ(GreedyMinimumWidth(g, 1, {}, /*max_width=*/5), -1);
  EXPECT_EQ(GreedyMinimumWidth(g, 1, {}, /*max_width=*/8), 8);
}

}  // namespace
}  // namespace satfr::route
