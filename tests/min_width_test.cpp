#include <gtest/gtest.h>

#include "flow/conflict_graph.h"
#include "flow/min_width.h"
#include "flow/track_checker.h"
#include "graph/coloring_bounds.h"
#include "netlist/mcnc_suite.h"
#include "route/global_router.h"
#include "test_util.h"

namespace satfr::flow {
namespace {

using fpga::Arch;
using fpga::DeviceGraph;

TEST(MinWidthTest, MatchesExactChromaticNumberOnRandomGraphs) {
  Rng rng(606);
  for (int i = 0; i < 10; ++i) {
    const graph::Graph g = testutil::RandomGraph(rng, 12, 0.35);
    const int chi = graph::ChromaticNumberExact(g);
    const MinWidthResult result = FindMinimumWidthOnGraph(g, 1, {});
    EXPECT_EQ(result.min_width, chi) << "iteration " << i;
    EXPECT_TRUE(result.proven_optimal);
    EXPECT_EQ(result.routable.status, sat::SolveResult::kSat);
    if (chi > 1) {
      EXPECT_EQ(result.unroutable.status, sat::SolveResult::kUnsat);
    }
  }
}

TEST(MinWidthTest, StartsFromLowerBound) {
  graph::Graph triangle(3);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  const MinWidthResult result = FindMinimumWidthOnGraph(triangle, 3, {});
  EXPECT_EQ(result.min_width, 3);
  EXPECT_EQ(result.lower_bound, 3);
  EXPECT_TRUE(result.proven_optimal);
  // Lower bound == min width: the W-1 proof was produced explicitly.
  EXPECT_EQ(result.unroutable.status, sat::SolveResult::kUnsat);
}

TEST(MinWidthTest, LowerBoundAboveMinimumIsAnError) {
  // A triangle routes at 3; a lower bound of 5 is wrong. The search must
  // not report 5 (or 4) as the minimum.
  graph::Graph triangle(3);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  const MinWidthResult result = FindMinimumWidthOnGraph(triangle, 5, {});
  EXPECT_EQ(result.min_width, -1);
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_NE(result.error.find("lower bound 5"), std::string::npos)
      << result.error;
}

TEST(MinWidthTest, LowerBoundAboveMaxWidthIsAnError) {
  graph::Graph triangle(3);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  MinWidthOptions options;
  options.max_width = 4;
  const MinWidthResult result = FindMinimumWidthOnGraph(triangle, 6, options);
  EXPECT_EQ(result.min_width, -1);
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_EQ(result.error, "lower bound 6 is above max_width 4");
}

TEST(MinWidthTest, UnroutableUpToMaxWidthIsAnError) {
  // A triangle needs 3 tracks; with max_width 2 every probed width is UNSAT.
  graph::Graph triangle(3);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  MinWidthOptions options;
  options.max_width = 2;
  const MinWidthResult result = FindMinimumWidthOnGraph(triangle, 1, options);
  EXPECT_EQ(result.min_width, -1);
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_EQ(result.error, "every width up to max_width 2 is unroutable");
}

TEST(MinWidthTest, EndToEndOnBenchmark) {
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark("tiny");
  const Arch arch(bench.params.grid_size);
  const DeviceGraph device(arch);
  const route::GlobalRouting routing =
      route::RouteGlobally(device, bench.netlist, bench.placement);
  const MinWidthResult result = FindMinimumWidth(arch, routing);
  ASSERT_GT(result.min_width, 0);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_GE(result.min_width, result.lower_bound);
  // The routable result carries a checkable detailed routing.
  std::string error;
  EXPECT_TRUE(ValidateTrackAssignment(arch, routing,
                                      result.routable.tracks,
                                      result.min_width, &error))
      << error;
  // And the conflict graph is genuinely not colorable below it.
  const graph::Graph conflict = BuildConflictGraph(arch, routing);
  EXPECT_EQ(graph::ChromaticNumberExact(conflict), result.min_width);
}

TEST(MinWidthTest, TimeoutLeavesMinWidthUnset) {
  // A graph large enough that a ~zero timeout cannot solve it.
  Rng rng(707);
  const graph::Graph g = testutil::RandomGraph(rng, 60, 0.5);
  MinWidthOptions options;
  options.route.timeout_seconds = 1e-6;
  const MinWidthResult result = FindMinimumWidthOnGraph(g, 2, options);
  EXPECT_EQ(result.min_width, -1);
  EXPECT_FALSE(result.proven_optimal);
}

TEST(MinWidthTest, EdgelessGraphWidthOne) {
  const graph::Graph g(5);
  const MinWidthResult result = FindMinimumWidthOnGraph(g, 1, {});
  EXPECT_EQ(result.min_width, 1);
  EXPECT_TRUE(result.proven_optimal);
}

}  // namespace
}  // namespace satfr::flow
