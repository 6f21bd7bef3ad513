#include "route/greedy_track_assigner.h"

#include <algorithm>
#include <utility>

namespace satfr::route {

GreedyAssignResult GreedyAssignTracks(const graph::Graph& conflict_graph,
                                      int num_tracks,
                                      const GreedyAssignOptions& options) {
  using graph::VertexId;
  const VertexId n = conflict_graph.num_vertices();
  GreedyAssignResult result;
  result.tracks.assign(static_cast<std::size_t>(n), -1);

  // Hardest-first: descending degree, ties by id.
  std::vector<VertexId> order(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    if (conflict_graph.Degree(a) != conflict_graph.Degree(b)) {
      return conflict_graph.Degree(a) > conflict_graph.Degree(b);
    }
    return a < b;
  });

  int ripup_budget = options.max_ripups;
  std::vector<VertexId> queue(order);  // nets still to place, FIFO by order
  std::size_t head = 0;
  while (head < queue.size()) {
    const VertexId v = queue[head++];
    if (result.tracks[static_cast<std::size_t>(v)] != -1) continue;
    // Already-assigned neighbors, grouped by the track they hold.
    std::vector<std::vector<VertexId>> holders(
        static_cast<std::size_t>(num_tracks));
    for (const VertexId u : conflict_graph.Neighbors(v)) {
      const int t = result.tracks[static_cast<std::size_t>(u)];
      if (t >= 0) holders[static_cast<std::size_t>(t)].push_back(u);
    }
    int chosen = -1;
    for (int t = 0; t < num_tracks; ++t) {
      if (holders[static_cast<std::size_t>(t)].empty()) {
        chosen = t;
        break;
      }
    }
    if (chosen == -1) {
      // Rip-up: take the track that is cheapest to clear (fewest holders,
      // then lowest total holder degree) among those the remaining budget
      // can clear. Every holder is evicted, each one costing one rip-up.
      std::pair<std::size_t, std::size_t> best_cost;
      for (int t = 0; t < num_tracks; ++t) {
        const std::vector<VertexId>& h = holders[static_cast<std::size_t>(t)];
        if (h.size() > static_cast<std::size_t>(ripup_budget)) continue;
        std::size_t degree = 0;
        for (const VertexId u : h) degree += conflict_graph.Degree(u);
        const std::pair<std::size_t, std::size_t> cost{h.size(), degree};
        if (chosen == -1 || cost < best_cost) {
          chosen = t;
          best_cost = cost;
        }
      }
      if (chosen != -1) {
        for (const VertexId u : holders[static_cast<std::size_t>(chosen)]) {
          result.tracks[static_cast<std::size_t>(u)] = -1;
          queue.push_back(u);
          --ripup_budget;
          ++result.ripups;
        }
      }
    }
    if (chosen == -1) continue;  // stays unassigned
    result.tracks[static_cast<std::size_t>(v)] = chosen;
  }

  for (const int t : result.tracks) {
    if (t < 0) ++result.unassigned;
  }
  result.success = result.unassigned == 0 &&
                   conflict_graph.IsProperColoring(result.tracks, num_tracks);
  return result;
}

int GreedyMinimumWidth(const graph::Graph& conflict_graph, int lower_bound,
                       const GreedyAssignOptions& options, int max_width) {
  for (int width = std::max(1, lower_bound); width <= max_width; ++width) {
    if (GreedyAssignTracks(conflict_graph, width, options).success) {
      return width;
    }
  }
  return -1;
}

}  // namespace satfr::route
