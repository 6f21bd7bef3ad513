#include "symmetry/symmetry.h"

#include <algorithm>

namespace satfr::symmetry {

const char* ToString(Heuristic heuristic) {
  switch (heuristic) {
    case Heuristic::kNone:
      return "-";
    case Heuristic::kB1:
      return "b1";
    case Heuristic::kS1:
      return "s1";
  }
  return "?";
}

std::optional<Heuristic> HeuristicFromName(std::string_view name) {
  if (name == "none" || name == "-") return Heuristic::kNone;
  if (name == "b1") return Heuristic::kB1;
  if (name == "s1") return Heuristic::kS1;
  return std::nullopt;
}

namespace {

using graph::Graph;
using graph::VertexId;

// Descending degree, ties by descending neighbor-degree sum, then by id.
bool DegreeBefore(const Graph& g, VertexId a, VertexId b) {
  if (g.Degree(a) != g.Degree(b)) return g.Degree(a) > g.Degree(b);
  const std::size_t sum_a = g.NeighborDegreeSum(a);
  const std::size_t sum_b = g.NeighborDegreeSum(b);
  if (sum_a != sum_b) return sum_a > sum_b;
  return a < b;
}

std::vector<VertexId> SequenceB1(const Graph& g, int num_colors) {
  // Seed: the vertex of maximum degree.
  VertexId seed = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (DegreeBefore(g, v, seed)) seed = v;
  }
  std::vector<VertexId> sequence{seed};
  // Its neighbors, best-degree first, up to K-2 of them.
  std::vector<VertexId> neighbors = g.Neighbors(seed);
  std::sort(neighbors.begin(), neighbors.end(),
            [&g](VertexId a, VertexId b) { return DegreeBefore(g, a, b); });
  const std::size_t limit = static_cast<std::size_t>(num_colors - 2);
  for (std::size_t i = 0; i < neighbors.size() && i < limit; ++i) {
    sequence.push_back(neighbors[i]);
  }
  return sequence;
}

std::vector<VertexId> SequenceS1(const Graph& g, int num_colors) {
  std::vector<VertexId> order(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    order[static_cast<std::size_t>(v)] = v;
  }
  std::sort(order.begin(), order.end(),
            [&g](VertexId a, VertexId b) { return DegreeBefore(g, a, b); });
  const std::size_t limit = static_cast<std::size_t>(num_colors - 1);
  if (order.size() > limit) order.resize(limit);
  return order;
}

}  // namespace

std::vector<VertexId> SymmetrySequence(const Graph& g, int num_colors,
                                       Heuristic heuristic) {
  if (heuristic == Heuristic::kNone || num_colors <= 1 ||
      g.num_vertices() == 0) {
    return {};
  }
  switch (heuristic) {
    case Heuristic::kB1:
      return SequenceB1(g, num_colors);
    case Heuristic::kS1:
      return SequenceS1(g, num_colors);
    case Heuristic::kNone:
      break;
  }
  return {};
}

bool ColoringRespectsSequenceUpToRenaming(
    const std::vector<int>& colors, int num_colors,
    const std::vector<VertexId>& sequence) {
  // Walk the sequence, renaming each first-seen color class to the smallest
  // unused index; check the renamed color of v_i (1-based) is < i.
  std::vector<int> rename(static_cast<std::size_t>(num_colors), -1);
  int next_index = 0;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const int original =
        colors[static_cast<std::size_t>(sequence[i])];
    if (original < 0 || original >= num_colors) return false;
    if (rename[static_cast<std::size_t>(original)] < 0) {
      rename[static_cast<std::size_t>(original)] = next_index++;
    }
    if (rename[static_cast<std::size_t>(original)] >
        static_cast<int>(i)) {
      return false;
    }
  }
  return true;
}

}  // namespace satfr::symmetry
