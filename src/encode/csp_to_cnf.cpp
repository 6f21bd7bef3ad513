#include "encode/csp_to_cnf.h"

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

  // Conflict clauses: one per edge per shared domain value (§2).
  for (const auto& [u, v] : g.Edges()) {
    const int offset_u = out.vertex_offset[static_cast<std::size_t>(u)];
    const int offset_v = out.vertex_offset[static_cast<std::size_t>(v)];
    for (int d = 0; d < num_colors; ++d) {
      const Cube& cube = out.domain.value_cubes[static_cast<std::size_t>(d)];
      EmitConflictClause(cube, offset_u, cube, offset_v, sink, scratch);
      ++out.stats.conflict_clauses;
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

sat::Var EmitNetGroup(const ColoringLayout& layout, graph::VertexId net,
                      int symmetry_position,
                      const std::vector<graph::VertexId>& owned_partners,
                      const std::vector<sat::Lit>& partner_guards,
                      NetGroupedSink& sink, ColoringCnfStats* stats) {
  assert(net >= 0 &&
         static_cast<std::size_t>(net) < layout.vertex_offset.size());
  assert(partner_guards.size() == owned_partners.size());
  sat::Clause scratch;
  const sat::Var activation = sink.BeginGroup(net);
  const int offset = layout.vertex_offset[static_cast<std::size_t>(net)];
  for (const sat::Clause& clause : layout.domain.structural) {
    EmitShiftedClause(clause, offset, sink, scratch);
    if (stats != nullptr) ++stats->structural_clauses;
  }
  // The restriction "sequence vertex j (1-based) uses colors < j" is sound
  // for any edge set — renaming the sequence vertices' color classes in
  // first-appearance order satisfies it for every proper coloring — so a
  // re-emitted group keeps its original position even after the graph
  // around it changed.
  if (symmetry_position > 0) {
    for (int d = symmetry_position; d < layout.num_colors; ++d) {
      EmitNegatedCube(layout.domain.value_cubes[static_cast<std::size_t>(d)],
                      offset, sink, scratch);
      if (stats != nullptr) ++stats->symmetry_clauses;
    }
  }
  for (std::size_t i = 0; i < owned_partners.size(); ++i) {
    const graph::VertexId u = owned_partners[i];
    const int offset_u = layout.vertex_offset[static_cast<std::size_t>(u)];
    for (int d = 0; d < layout.num_colors; ++d) {
      const Cube& cube = layout.domain.value_cubes[static_cast<std::size_t>(d)];
      EmitGuardedConflictClause(cube, offset_u, cube, offset,
                                partner_guards[i], sink, scratch);
      if (stats != nullptr) ++stats->conflict_clauses;
    }
  }
  sink.EndGroup();
  return activation;
}

ColoringLayout EncodeColoringGrouped(
    const graph::Graph& g, int num_colors, const EncodingSpec& spec,
    const std::vector<graph::VertexId>& symmetry_sequence,
    NetGroupedSink& sink) {
  ColoringLayout out = MakeColoringLayout(g, num_colors, spec);
  sink.EnsureVars(out.num_vars);
  sink.ReserveClauses(ExpectedColoringClauses(g, out.domain, num_colors,
                                              symmetry_sequence.size()));

  const graph::VertexId n = g.num_vertices();
  std::vector<int> position(static_cast<std::size_t>(n), 0);
  for (std::size_t j = 0; j < symmetry_sequence.size(); ++j) {
    position[static_cast<std::size_t>(symmetry_sequence[j])] =
        static_cast<int>(j) + 1;
  }
  // Owner = larger endpoint, so every partner's group (and therefore its
  // activation literal, used as the cross guard) exists before the owner's
  // conflict clauses reference it.
  std::vector<sat::Var> activation(static_cast<std::size_t>(n), -1);
  std::vector<graph::VertexId> owned;
  std::vector<sat::Lit> guards;
  for (graph::VertexId v = 0; v < n; ++v) {
    owned.clear();
    guards.clear();
    for (const graph::VertexId u : g.Neighbors(v)) {
      if (u < v) {
        owned.push_back(u);
        guards.push_back(
            sat::Lit::Neg(activation[static_cast<std::size_t>(u)]));
      }
    }
    activation[static_cast<std::size_t>(v)] =
        EmitNetGroup(out, v, position[static_cast<std::size_t>(v)], owned,
                     guards, sink, &out.stats);
  }
  return out;
}

std::vector<sat::Var> EmitWidthLadder(const ColoringLayout& layout,
                                      int first_width,
                                      sat::ClauseSink& sink) {
  const int k = layout.num_colors;
  assert(first_width >= 1);
  std::vector<sat::Var> guard(static_cast<std::size_t>(k), -1);
  for (int w = first_width; w < k; ++w) {
    guard[static_cast<std::size_t>(w)] = sink.EmitVar();
  }
  sat::Clause scratch;
  for (int w = first_width; w < k; ++w) {
    const sat::Var g = guard[static_cast<std::size_t>(w)];
    if (w + 1 < k) {
      sink.EmitBinary(sat::Lit::Neg(g),
                      sat::Lit::Pos(guard[static_cast<std::size_t>(w + 1)]));
    }
    for (const int offset : layout.vertex_offset) {
      scratch = NegateCube(
          layout.domain.value_cubes[static_cast<std::size_t>(w)], offset);
      scratch.push_back(sat::Lit::Neg(g));
      sink.EmitClause(scratch);
    }
  }
  return guard;
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

std::uint64_t NumberingKey(
    const DomainEncoding& domain, int num_colors,
    const std::vector<graph::VertexId>& symmetry_sequence) {
  // FNV-1a over every ingredient that shapes variable meaning. Separators
  // between sections keep e.g. a cube boundary shift from colliding.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t value) {
    h ^= value;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(num_colors));
  mix(static_cast<std::uint64_t>(domain.num_vars));
  for (const Cube& cube : domain.value_cubes) {
    mix(0xC0DEull);  // cube separator
    for (const sat::Lit l : cube) {
      mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(l.code())));
    }
  }
  mix(0x5E9ull);  // sequence separator
  for (const graph::VertexId v : symmetry_sequence) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  }
  return h;
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
