// Incremental minimum-width search (engineering extension).
//
// The scratch search (min_width.h) builds a fresh CNF and a fresh solver
// for every width W. This variant encodes the coloring ONCE at a width
// K_max that is guaranteed routable (the DSATUR bound), adds a ladder of
// guard variables
//
//     g_W  =>  g_{W+1}          (forbidding width W forbids W+1's color)
//     g_W  =>  ~cube_v(W)       for every vertex v
//
// so that assuming the single literal g_W restricts every vertex to colors
// < W, and then walks W upward with SolveWithAssumptions({g_W}) on ONE
// solver instance. Everything learned while refuting width W carries over
// to width W+1 — the clause-reuse benefit the incremental-SAT literature
// promises for monotone queries like channel-width search.
//
// Symmetry breaking uses the K_max sequence, which remains sound for every
// W <= K_max (Van Gelder's renaming argument assigns first-seen color
// classes the smallest indices, so a W-coloring renames into colors < W).
//
// The ladder is encode::EmitWidthLadder, the same emitter RoutingSession
// uses. The sweep keeps its own single-guard solver loop rather than
// driving a session: a session assumes every net's activation literal on
// every solve (DESIGN.md §14 has the measurement).
#pragma once

#include <string>
#include <vector>

#include "encode/registry.h"
#include "graph/graph.h"
#include "sat/solver.h"
#include "symmetry/symmetry.h"

namespace satfr::flow {

struct IncrementalMinWidthOptions {
  encode::EncodingSpec encoding = encode::GetEncoding("ITE-linear-2+muldirect");
  symmetry::Heuristic heuristic = symmetry::Heuristic::kS1;
  sat::SolverOptions solver = sat::SolverOptions::SiegeLike();
  /// Wall-clock budget for the whole search; <= 0 means unlimited.
  double timeout_seconds = 0.0;
  /// Telemetry label (trace spans / run-report records); empty is fine.
  std::string run_label;
};

struct IncrementalMinWidthResult {
  /// Smallest routable width; -1 on timeout or internal error (see
  /// `error`).
  int min_width = -1;
  /// True when every width in [lower_bound, min_width) was refuted.
  bool proven_optimal = false;
  /// A proper coloring in [0, min_width) (encode::DecodeProperColoring).
  std::vector<int> tracks;
  /// Non-empty when the model failed encode::DecodeProperColoring or a
  /// guarded UNSAT refuted the whole formula below the DSATUR-certified
  /// width: a solver or encoding bug. min_width is then -1.
  std::string error;
  /// Number of SAT queries issued (one per width tested).
  int widths_tested = 0;
  /// Statistics of the resident solver.
  sat::SolverStats solver_stats;
  double total_seconds = 0.0;
};

IncrementalMinWidthResult FindMinimumWidthIncremental(
    const graph::Graph& conflict_graph, int lower_bound,
    const IncrementalMinWidthOptions& options = {});

}  // namespace satfr::flow
