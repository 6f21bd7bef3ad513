// Undirected simple graph used for the CSP / graph-coloring formulation.
//
// Vertices are dense 0-based ids. Parallel edges and self-loops are rejected
// at insertion, matching the paper's conflict graphs where each pair of
// 2-pin nets gets at most one exclusivity constraint (§2: "impose
// exclusivity constraints once for each pair").
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace satfr::graph {

using VertexId = std::int32_t;

class Graph {
 public:
  Graph() = default;
  explicit Graph(VertexId num_vertices)
      : adjacency_(static_cast<std::size_t>(num_vertices)) {}

  VertexId num_vertices() const {
    return static_cast<VertexId>(adjacency_.size());
  }
  std::size_t num_edges() const { return num_edges_; }

  /// Adds a vertex, returning its id.
  VertexId AddVertex();

  /// Adds edge {u, v} if absent. Self-loops are ignored. Returns true if the
  /// edge was newly inserted.
  bool AddEdge(VertexId u, VertexId v);

  /// True if {u, v} is an edge.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Neighbors of v, unordered.
  const std::vector<VertexId>& Neighbors(VertexId v) const {
    return adjacency_[static_cast<std::size_t>(v)];
  }

  std::size_t Degree(VertexId v) const {
    return adjacency_[static_cast<std::size_t>(v)].size();
  }

  /// Maximum degree over all vertices (0 for an empty graph).
  std::size_t MaxDegree() const;

  /// Sum of the degrees of v's neighbors (the tie-break key used by the
  /// paper's symmetry-breaking heuristics).
  std::size_t NeighborDegreeSum(VertexId v) const;

  /// All edges as (min, max) pairs, sorted.
  std::vector<std::pair<VertexId, VertexId>> Edges() const;

  /// True if `colors` has one entry per vertex, each in [0, num_colors), and
  /// `colors[u] != colors[v]` for every edge {u, v}. Every SAT answer's
  /// coloring passes this check (encode::DecodeProperColoring).
  bool IsProperColoring(const std::vector<int>& colors, int num_colors) const;

  /// Structural equality: same vertex count and the same edge set, however
  /// the edges were added.
  bool operator==(const Graph& other) const;

 private:
  std::vector<std::vector<VertexId>> adjacency_;
  std::size_t num_edges_ = 0;
};

}  // namespace satfr::graph
