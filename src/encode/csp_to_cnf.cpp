#include "encode/csp_to_cnf.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace satfr::encode {

std::uint64_t ExpectedColoringClauses(const graph::Graph& g,
                                      const DomainEncoding& domain,
                                      int num_colors,
                                      std::size_t symmetry_sequence_size) {
  std::uint64_t total =
      static_cast<std::uint64_t>(g.num_vertices()) * domain.structural.size();
  total += static_cast<std::uint64_t>(g.num_edges()) *
           static_cast<std::uint64_t>(num_colors);
  for (std::size_t j = 0; j < symmetry_sequence_size; ++j) {
    total += static_cast<std::uint64_t>(num_colors) - 1 - j;
  }
  return total;
}

ColoringLayout MakeColoringLayout(const graph::Graph& g, int num_colors,
                                  const EncodingSpec& spec) {
  assert(num_colors >= 1);
  ColoringLayout out;
  out.num_colors = num_colors;
  out.domain = EncodeDomain(spec, num_colors);

  const graph::VertexId n = g.num_vertices();
  out.vertex_offset.resize(static_cast<std::size_t>(n));
  for (graph::VertexId v = 0; v < n; ++v) {
    out.vertex_offset[static_cast<std::size_t>(v)] =
        static_cast<int>(v) * out.domain.num_vars;
  }
  out.num_vars = static_cast<int>(n) * out.domain.num_vars;
  return out;
}

ColoringLayout EncodeColoringToSink(
    const graph::Graph& g, int num_colors, const EncodingSpec& spec,
    const std::vector<graph::VertexId>& symmetry_sequence,
    sat::ClauseSink& sink) {
  ColoringLayout out = MakeColoringLayout(g, num_colors, spec);
  const graph::VertexId n = g.num_vertices();
  sink.EnsureVars(out.num_vars);
  sink.ReserveClauses(ExpectedColoringClauses(g, out.domain, num_colors,
                                              symmetry_sequence.size()));

  sat::Clause scratch;

  // Per-vertex structural clauses.
  for (graph::VertexId v = 0; v < n; ++v) {
    const int offset = out.vertex_offset[static_cast<std::size_t>(v)];
    for (const sat::Clause& clause : out.domain.structural) {
      EmitShiftedClause(clause, offset, sink, scratch);
      ++out.stats.structural_clauses;
    }
  }

  // Conflict clauses: one per edge per shared domain value (§2), edges in
  // (min, max) lexicographic order — each vertex u's higher neighbors,
  // ascending, sorted per vertex in a reused buffer.
  std::vector<graph::VertexId> higher;
  for (graph::VertexId u = 0; u < n; ++u) {
    higher.clear();
    for (const graph::VertexId v : g.Neighbors(u)) {
      if (v > u) higher.push_back(v);
    }
    std::sort(higher.begin(), higher.end());
    const int offset_u = out.vertex_offset[static_cast<std::size_t>(u)];
    for (const graph::VertexId v : higher) {
      const int offset_v = out.vertex_offset[static_cast<std::size_t>(v)];
      for (int d = 0; d < num_colors; ++d) {
        const Cube& cube =
            out.domain.value_cubes[static_cast<std::size_t>(d)];
        EmitConflictClause(cube, offset_u, cube, offset_v, sink, scratch);
        ++out.stats.conflict_clauses;
      }
    }
  }

  // Symmetry restrictions: the i-th sequence vertex (1-based) may only use
  // colors < i, enforced by forbidding every higher color's cube.
  assert(static_cast<int>(symmetry_sequence.size()) <= num_colors - 1 ||
         symmetry_sequence.empty());
  for (std::size_t j = 0; j < symmetry_sequence.size(); ++j) {
    const graph::VertexId v = symmetry_sequence[j];
    const int offset = out.vertex_offset[static_cast<std::size_t>(v)];
    for (int d = static_cast<int>(j) + 1; d < num_colors; ++d) {
      EmitNegatedCube(out.domain.value_cubes[static_cast<std::size_t>(d)],
                      offset, sink, scratch);
      ++out.stats.symmetry_clauses;
    }
  }
  return out;
}

EncodedColoring EncodeColoring(
    const graph::Graph& g, int num_colors, const EncodingSpec& spec,
    const std::vector<graph::VertexId>& symmetry_sequence) {
  EncodedColoring out;
  sat::CnfCollectorSink sink(out.cnf);
  static_cast<ColoringLayout&>(out) =
      EncodeColoringToSink(g, num_colors, spec, symmetry_sequence, sink);
  sink.Finish();
  return out;
}

std::vector<int> DecodeColoring(const ColoringLayout& layout,
                                const std::vector<bool>& model) {
  std::vector<int> colors(layout.vertex_offset.size(), -1);
  for (std::size_t v = 0; v < layout.vertex_offset.size(); ++v) {
    colors[v] = DecodeValue(layout.domain, layout.vertex_offset[v], model);
  }
  return colors;
}

std::string DecodeProperColoring(const graph::Graph& g,
                                 const ColoringLayout& layout,
                                 const std::vector<bool>& model,
                                 int num_colors, std::vector<int>* colors) {
  std::vector<int> decoded = DecodeColoring(layout, model);
  if (!g.IsProperColoring(decoded, num_colors)) {
    return "decoded model at width " + std::to_string(num_colors) +
           " is not a proper coloring within the width bound";
  }
  *colors = std::move(decoded);
  return {};
}

}  // namespace satfr::encode
