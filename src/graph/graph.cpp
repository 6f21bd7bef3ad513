#include "graph/graph.h"

#include <algorithm>
#include <cassert>

namespace satfr::graph {

VertexId Graph::AddVertex() {
  adjacency_.emplace_back();
  return static_cast<VertexId>(adjacency_.size() - 1);
}

bool Graph::AddEdge(VertexId u, VertexId v) {
  assert(u >= 0 && u < num_vertices());
  assert(v >= 0 && v < num_vertices());
  if (u == v) return false;
  if (HasEdge(u, v)) return false;
  adjacency_[static_cast<std::size_t>(u)].push_back(v);
  adjacency_[static_cast<std::size_t>(v)].push_back(u);
  ++num_edges_;
  return true;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u < 0 || v < 0 || u >= num_vertices() || v >= num_vertices()) {
    return false;
  }
  // Scan the smaller adjacency list.
  const auto& a = adjacency_[static_cast<std::size_t>(u)];
  const auto& b = adjacency_[static_cast<std::size_t>(v)];
  const auto& list = (a.size() <= b.size()) ? a : b;
  const VertexId target = (a.size() <= b.size()) ? v : u;
  return std::find(list.begin(), list.end(), target) != list.end();
}

std::size_t Graph::MaxDegree() const {
  std::size_t best = 0;
  for (const auto& list : adjacency_) best = std::max(best, list.size());
  return best;
}

std::size_t Graph::NeighborDegreeSum(VertexId v) const {
  std::size_t sum = 0;
  for (const VertexId u : Neighbors(v)) sum += Degree(u);
  return sum;
}

std::vector<std::pair<VertexId, VertexId>> Graph::Edges() const {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(num_edges_);
  for (VertexId v = 0; v < num_vertices(); ++v) {
    for (const VertexId u : Neighbors(v)) {
      if (v < u) edges.emplace_back(v, u);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

bool Graph::IsProperColoring(const std::vector<int>& colors,
                             int num_colors) const {
  if (colors.size() != static_cast<std::size_t>(num_vertices())) return false;
  for (const int color : colors) {
    if (color < 0 || color >= num_colors) return false;
  }
  for (VertexId v = 0; v < num_vertices(); ++v) {
    for (const VertexId u : Neighbors(v)) {
      if (colors[static_cast<std::size_t>(v)] ==
          colors[static_cast<std::size_t>(u)]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace satfr::graph
