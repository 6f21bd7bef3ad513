#include <gtest/gtest.h>

#include "route/maze_router.h"

namespace satfr::route {
namespace {

using fpga::Arch;
using fpga::DeviceGraph;
using fpga::NodeId;
using fpga::SegmentIndex;

TEST(MazeRouterTest, TrivialSameNode) {
  const Arch arch(4);
  const DeviceGraph device(arch);
  const auto path =
      FindShortestPath(device, arch.NodeAt(1, 1), arch.NodeAt(1, 1));
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->empty());
}

TEST(MazeRouterTest, ShortestPathHasManhattanLength) {
  const Arch arch(6);
  const DeviceGraph device(arch);
  for (const auto& [x1, y1, x2, y2] :
       std::vector<std::tuple<int, int, int, int>>{
           {0, 0, 6, 6}, {2, 5, 4, 1}, {0, 3, 6, 3}, {1, 1, 1, 4}}) {
    const NodeId a = arch.NodeAt(x1, y1);
    const NodeId b = arch.NodeAt(x2, y2);
    const auto path = FindShortestPath(device, a, b);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(static_cast<int>(path->size()),
              device.ManhattanDistance(a, b));
  }
}

TEST(MazeRouterTest, PathIsConnected) {
  const Arch arch(5);
  const DeviceGraph device(arch);
  const NodeId from = arch.NodeAt(0, 4);
  const NodeId to = arch.NodeAt(5, 0);
  const auto path = FindShortestPath(device, from, to);
  ASSERT_TRUE(path.has_value());
  NodeId at = from;
  for (const SegmentIndex seg : *path) {
    NodeId a = fpga::kInvalidNode;
    NodeId b = fpga::kInvalidNode;
    arch.SegmentEndpoints(seg, &a, &b);
    ASSERT_TRUE(a == at || b == at);
    at = (a == at) ? b : a;
  }
  EXPECT_EQ(at, to);
}

TEST(MazeRouterTest, AvoidsExpensiveSegments) {
  // Make the direct corridor between (0,0) and (2,0) expensive; the router
  // must detour around it.
  const Arch arch(2);
  const DeviceGraph device(arch);
  const SegmentIndex blocked_a = arch.HorizontalSegment(0, 0);
  const SegmentIndex blocked_b = arch.HorizontalSegment(1, 0);
  const auto cost = [&](SegmentIndex seg) {
    return (seg == blocked_a || seg == blocked_b) ? 100.0 : 1.0;
  };
  const auto path =
      FindPath(device, arch.NodeAt(0, 0), arch.NodeAt(2, 0), cost);
  ASSERT_TRUE(path.has_value());
  for (const SegmentIndex seg : *path) {
    EXPECT_NE(seg, blocked_a);
    EXPECT_NE(seg, blocked_b);
  }
  EXPECT_EQ(path->size(), 4u);  // detour via y=1
}

TEST(MazeRouterTest, CostTiesStillOptimal) {
  const Arch arch(8);
  const DeviceGraph device(arch);
  // Uniform cost 2.0: path length must still be Manhattan distance.
  const auto path = FindPath(device, arch.NodeAt(0, 0), arch.NodeAt(5, 3),
                             [](SegmentIndex) { return 2.0; });
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 8u);
}

TEST(MazeRouterTest, ReusedSearchMatchesFreshSearches) {
  // One MazeSearch refilled per query must return exactly what a fresh
  // search returns, whatever the previous query left behind.
  const Arch arch(6);
  const DeviceGraph device(arch);
  MazeSearch search(device);
  for (int query = 0; query < 40; ++query) {
    const NodeId from = arch.NodeAt((query * 5) % 7, (query * 3) % 7);
    const NodeId to = arch.NodeAt((query * 2 + 1) % 7, (query * 11) % 7);
    const auto cost = [query](SegmentIndex seg) {
      return 1.0 + 0.5 * ((seg * 37 + query * 11) % 5);
    };
    const auto reused = search.FindPath(from, to, cost);
    const auto fresh = FindPath(device, from, to, cost);
    ASSERT_TRUE(reused.has_value()) << "query " << query;
    ASSERT_TRUE(fresh.has_value()) << "query " << query;
    EXPECT_EQ(*reused, *fresh) << "query " << query;
  }
}

}  // namespace
}  // namespace satfr::route
