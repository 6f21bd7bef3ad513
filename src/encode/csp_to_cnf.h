// Graph-coloring -> CNF compilation (the paper's second translation tool).
//
// Given a conflict graph, a color count K, an encoding, and an optional
// symmetry-breaking vertex sequence, produces the CNF that is satisfiable
// iff the graph is K-colorable under the added symmetry restrictions (which
// preserve K-colorability; see symmetry/symmetry.h). Every vertex gets its
// own block of indexing Booleans; all vertices share one DomainEncoding
// template since all domains have size K.
//
// Two entry points share one emission loop:
//   * EncodeColoringToSink streams clauses into any sat::ClauseSink — the
//     route flow pairs it with a SolverSink, its only load path, so the
//     formula never materializes as a Cnf.
//   * EncodeColoring materializes a Cnf via CnfCollectorSink, for the
//     tools that inspect the whole formula (satlint, tests, benches); its
//     output (clause order, literal order, Table 1 counts) is the stream
//     the solver receives.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "encode/hierarchical.h"
#include "graph/graph.h"
#include "sat/cnf.h"
#include "sat/clause_sink.h"

namespace satfr::encode {

struct ColoringCnfStats {
  std::size_t structural_clauses = 0;
  std::size_t conflict_clauses = 0;
  std::size_t symmetry_clauses = 0;

  /// Total clauses the encoder emitted.
  std::size_t TotalEmitted() const {
    return structural_clauses + conflict_clauses + symmetry_clauses;
  }
};

/// Everything needed to interpret the encoded formula's variables — the
/// encoding result minus the clause storage. This is what streaming
/// consumers hold on to: the clauses themselves live wherever the sink put
/// them (solver arena, disk, nowhere).
struct ColoringLayout {
  int num_colors = 0;
  /// Shared per-vertex encoding template.
  DomainEncoding domain;
  /// First CNF variable of each vertex's indexing block.
  std::vector<int> vertex_offset;
  /// Total CNF variables (num_vertices * domain.num_vars).
  int num_vars = 0;
  ColoringCnfStats stats;
};

/// The materialized form: layout plus the collected Cnf.
struct EncodedColoring : ColoringLayout {
  sat::Cnf cnf;
};

/// Streams the K-coloring of `g` compiled with `spec` into `sink` and
/// returns the variable layout. Emission order (per-vertex structural, then
/// per-edge conflict, then symmetry restrictions) and literal order within
/// each clause match EncodeColoring exactly.
///
/// `symmetry_sequence` (possibly empty) lists vertices v_1..v_m (m <= K-1);
/// the i-th (1-based) is restricted to colors < i by negated-cube clauses.
ColoringLayout EncodeColoringToSink(
    const graph::Graph& g, int num_colors, const EncodingSpec& spec,
    const std::vector<graph::VertexId>& symmetry_sequence,
    sat::ClauseSink& sink);

/// Compiles the K-coloring of `g` to a materialized CNF with `spec`
/// (EncodeColoringToSink through a CnfCollectorSink).
EncodedColoring EncodeColoring(
    const graph::Graph& g, int num_colors, const EncodingSpec& spec,
    const std::vector<graph::VertexId>& symmetry_sequence = {});

/// Computes the variable layout of EncodeColoringToSink without emitting
/// anything: the shared domain template and per-vertex offsets. The
/// streaming entry points derive their layouts from this; callers that
/// interleave other variables with the emission (the guard ladder, net
/// groups) use it to fix the base numbering up front.
ColoringLayout MakeColoringLayout(const graph::Graph& g, int num_colors,
                                  const EncodingSpec& spec);

/// Exact number of clauses EncodeColoringToSink will emit for this
/// instance/domain/sequence combination — used for ReserveClauses up front.
std::uint64_t ExpectedColoringClauses(const graph::Graph& g,
                                      const DomainEncoding& domain,
                                      int num_colors,
                                      std::size_t symmetry_sequence_size);

/// Extracts the color of every vertex from a SAT model of the encoded
/// formula. Works for both the materialized (EncodedColoring) and streamed
/// (ColoringLayout) paths — decoding needs only the layout. Entries are in
/// [0, K); -1 signals a malformed model (never for models produced by a
/// sound solver on a sound encoding).
std::vector<int> DecodeColoring(const ColoringLayout& layout,
                                const std::vector<bool>& model);

/// The model check every SAT coloring answer passes, in every build type:
/// decodes `model` and returns "" with `*colors` set if
/// `g.IsProperColoring(decoded, num_colors)`, else an error (a solver or
/// encoding bug). `layout` may encode more colors than `num_colors`.
std::string DecodeProperColoring(const graph::Graph& g,
                                 const ColoringLayout& layout,
                                 const std::vector<bool>& model,
                                 int num_colors, std::vector<int>* colors);

}  // namespace satfr::encode
