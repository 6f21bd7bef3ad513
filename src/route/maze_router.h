// Point-to-point maze routing on the device graph.
//
// A* over switch nodes with per-segment costs supplied by the caller (the
// negotiated-congestion global router varies these between iterations).
// Costs must be >= 1 so the Manhattan-distance heuristic stays admissible
// and the search returns a minimum-cost path.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "fpga/device_graph.h"

namespace satfr::route {

/// A* state sized for one device: best costs, back-pointers and the open
/// list. Each search refills it, so one object serves any number of
/// searches without allocating (the global router runs thousands).
class MazeSearch {
 public:
  explicit MazeSearch(const fpga::DeviceGraph& device)
      : device_(device),
        best_cost_(static_cast<std::size_t>(device.arch().num_nodes())),
        came_from_(best_cost_.size()),
        came_via_(best_cost_.size()) {}

  /// Minimum-cost path from `from` to `to` as the ordered list of traversed
  /// segments; std::nullopt only if from/to are disconnected (never on our
  /// grid). `from == to` yields an empty path. `segment_cost` maps a
  /// SegmentIndex to its cost (>= 1).
  template <typename SegmentCost>
  std::optional<std::vector<fpga::SegmentIndex>> FindPath(
      fpga::NodeId from, fpga::NodeId to, const SegmentCost& segment_cost);

 private:
  struct Entry {
    double priority;  // g + h
    double cost;      // g
    fpga::NodeId node;
  };

  double& BestCost(fpga::NodeId node) {
    return best_cost_[static_cast<std::size_t>(node)];
  }

  const fpga::DeviceGraph& device_;
  std::vector<double> best_cost_;
  std::vector<fpga::NodeId> came_from_;
  std::vector<fpga::SegmentIndex> came_via_;
  std::vector<Entry> open_;  // binary min-heap on priority
};

/// One-off search with a fresh MazeSearch.
template <typename SegmentCost>
std::optional<std::vector<fpga::SegmentIndex>> FindPath(
    const fpga::DeviceGraph& device, fpga::NodeId from, fpga::NodeId to,
    const SegmentCost& segment_cost) {
  return MazeSearch(device).FindPath(from, to, segment_cost);
}

/// Shortest path with unit costs.
std::optional<std::vector<fpga::SegmentIndex>> FindShortestPath(
    const fpga::DeviceGraph& device, fpga::NodeId from, fpga::NodeId to);

template <typename SegmentCost>
std::optional<std::vector<fpga::SegmentIndex>> MazeSearch::FindPath(
    fpga::NodeId from, fpga::NodeId to, const SegmentCost& segment_cost) {
  using fpga::NodeId;
  using fpga::SegmentIndex;
  if (from == to) return std::vector<SegmentIndex>{};

  std::fill(best_cost_.begin(), best_cost_.end(),
            std::numeric_limits<double>::infinity());
  std::fill(came_from_.begin(), came_from_.end(), fpga::kInvalidNode);
  open_.clear();
  // A min-heap on priority through push_heap/pop_heap: the same operations
  // std::priority_queue performs, so equal priorities pop in a fixed order.
  const auto later = [](const Entry& a, const Entry& b) {
    return a.priority > b.priority;
  };
  const auto push = [&](const Entry& entry) {
    open_.push_back(entry);
    std::push_heap(open_.begin(), open_.end(), later);
  };

  BestCost(from) = 0.0;
  push(Entry{static_cast<double>(device_.ManhattanDistance(from, to)), 0.0,
             from});
  while (!open_.empty()) {
    std::pop_heap(open_.begin(), open_.end(), later);
    const Entry current = open_.back();
    open_.pop_back();
    if (current.node == to) break;
    if (current.cost > BestCost(current.node)) continue;  // stale entry
    for (const auto& hop : device_.Hops(current.node)) {
      const double hop_cost = segment_cost(hop.via);
      assert(hop_cost >= 1.0 && "costs below 1 break the A* heuristic");
      const double next_cost = current.cost + hop_cost;
      if (next_cost < BestCost(hop.to)) {
        BestCost(hop.to) = next_cost;
        came_from_[static_cast<std::size_t>(hop.to)] = current.node;
        came_via_[static_cast<std::size_t>(hop.to)] = hop.via;
        push(Entry{next_cost + static_cast<double>(
                                   device_.ManhattanDistance(hop.to, to)),
                   next_cost, hop.to});
      }
    }
  }

  if (came_from_[static_cast<std::size_t>(to)] == fpga::kInvalidNode) {
    return std::nullopt;
  }
  std::vector<SegmentIndex> path;
  for (NodeId node = to; node != from;
       node = came_from_[static_cast<std::size_t>(node)]) {
    path.push_back(came_via_[static_cast<std::size_t>(node)]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace satfr::route
