// Lookahead-lite cube generation for cube-and-conquer coloring search.
//
// A cube is a set of assumption literals that commits a few branch vertices
// to concrete colors; the cube set partitions (more precisely: covers) the
// search space of one (instance, W) query, so the cubes can be refuted or
// satisfied independently on parallel workers. Instead of running a
// lookahead solver (the classic March-style generator), we exploit two
// structural properties of the coloring CSP:
//
//   * Every encoding's structural clauses entail "at least one value cube
//     is true" per vertex, so branching a vertex over its value cubes is an
//     exhaustive case split — any model satisfies at least one branch.
//   * The symmetry-broken sequence vertices v_1..v_m have domains clipped
//     to {0..i-1} by emitted restriction clauses, so branching them first
//     yields a naturally balanced 1 x 2 x 3 x ... split; after the sequence
//     we continue with the highest-degree remaining vertices, whose many
//     conflict edges make the per-cube subproblems maximally constrained.
//
// Two prunes drop cubes that emitted clauses already refute (skipping an
// entailed-UNSAT leaf is sound — even when it empties the cube set, which
// itself proves UNSAT):
//   * conflict pruning: two adjacent branch vertices with equal colors
//     violate a conflict clause;
//   * symmetry pruning is implicit: colors >= min(i, K) are never
//     enumerated for sequence vertex i (they violate its restriction
//     clauses), counted so throughput reports can show the split sizes.
//
// Generation is deterministic: branch-vertex order and color order are
// fixed functions of the graph, the sequence, and the options.
#ifndef SATFR_CUBE_CUBE_GEN_H_
#define SATFR_CUBE_CUBE_GEN_H_

#include <cstddef>
#include <vector>

#include "encode/hierarchical.h"
#include "graph/graph.h"
#include "sat/types.h"

namespace satfr::cube {

struct CubeGenOptions {
  /// Stop adding branch vertices once at least this many cubes exist.
  /// The final count can overshoot by up to one vertex's branching factor
  /// and undershoot when pruning or the vertex supply cuts the tree short.
  int target_cubes = 256;
  /// Hard cap on branch vertices (each multiplies the cube count by up to
  /// the color count; 12 vertices already allow millions of cubes).
  int max_branch_vertices = 12;
};

struct CubeSet {
  /// Assumption literal sets, one per cube, over the encoded formula's
  /// variables (vertex v's block at v * domain.num_vars). Deterministic
  /// order: lexicographic in (branch-vertex, color) enumeration order.
  std::vector<std::vector<sat::Lit>> cubes;
  /// Branch vertices, in branching order (sequence first, then by degree).
  std::vector<graph::VertexId> branch_vertices;
  /// Leaves dropped because two adjacent branch vertices shared a color.
  std::size_t pruned_conflict = 0;
  /// Leaves never enumerated because a sequence vertex's restriction
  /// clauses forbid the color.
  std::size_t pruned_symmetry = 0;
};

/// Builds cubes for the K-coloring of `g` encoded with `domain`, where K =
/// `branch_colors` is the number of colors a vertex may take (<=
/// domain.domain_size; smaller when the formula's own clauses forbid the
/// higher colors, as a width guard ladder does).
/// `symmetry_sequence` must be the exact sequence the formula was encoded
/// with (its restriction clauses are what make symmetry pruning sound).
CubeSet GenerateCubes(const graph::Graph& g,
                      const encode::DomainEncoding& domain, int branch_colors,
                      const std::vector<graph::VertexId>& symmetry_sequence,
                      const CubeGenOptions& options = {});

}  // namespace satfr::cube

#endif  // SATFR_CUBE_CUBE_GEN_H_
