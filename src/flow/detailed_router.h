// The SAT-based detailed router: the paper's end-to-end per-instance flow.
//
// Given a fixed global routing and a channel width W, runs the two-stage
// translation (conflict graph -> CNF via a chosen encoding, with optional
// symmetry breaking) and the SAT solver. Reports the same time breakdown the
// paper's Table 2 sums: graph-coloring generation + CNF translation + SAT
// solving. The encoder streams its clauses straight into the solver
// (sat::SolverSink); a Cnf copy exists only for the proof check of
// verify_unsat_proof. Lint the same formula with `satlint encode`.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "encode/csp_to_cnf.h"
#include "encode/registry.h"
#include "fpga/arch.h"
#include "graph/graph.h"
#include "route/global_routing.h"
#include "sat/solver.h"
#include "symmetry/symmetry.h"

namespace satfr::flow {

struct DetailedRouteOptions {
  encode::EncodingSpec encoding = encode::GetEncoding("muldirect");
  symmetry::Heuristic heuristic = symmetry::Heuristic::kNone;
  sat::SolverOptions solver = sat::SolverOptions::SiegeLike();
  /// Wall-clock budget for the SAT call; <= 0 means unlimited.
  double timeout_seconds = 0.0;
  /// Optional cooperative stop flag (portfolio cancellation).
  const std::atomic<bool>* stop = nullptr;
  /// Record a DRUP-style proof and re-verify kUnsat answers with the
  /// independent RUP checker (see DetailedRouteResult::proof_verified).
  /// The encoder's stream is then also tee'd into a Cnf for the checker,
  /// so this costs memory proportional to the formula plus the clauses
  /// learned; the search itself is unchanged.
  bool verify_unsat_proof = false;
  /// Label for telemetry (trace spans and run-report records): the MCNC
  /// circuit / .col file / CNF name this solve belongs to. Purely
  /// descriptive; empty is fine (records then say "graph").
  std::string run_label;
};

struct DetailedRouteResult {
  sat::SolveResult status = sat::SolveResult::kUnknown;
  /// Track per 2-pin net; filled only when status == kSat, and then always
  /// a proper coloring of the conflict graph in [0, num_tracks).
  std::vector<int> tracks;
  /// Non-empty when the model failed encode::DecodeProperColoring (a
  /// solver or encoding bug); status is then kUnknown.
  std::string error;

  // Time breakdown, in seconds (paper Table 2 reports their sum).
  double coloring_seconds = 0.0;
  double encode_seconds = 0.0;
  double solve_seconds = 0.0;
  double TotalSeconds() const {
    return coloring_seconds + encode_seconds + solve_seconds;
  }

  // Instance sizes.
  int conflict_vertices = 0;
  std::size_t conflict_edges = 0;
  int cnf_vars = 0;
  std::size_t cnf_clauses = 0;
  sat::SolverStats solver_stats;

  /// Per-category clause counts of the encoding.
  encode::ColoringCnfStats encode_stats;

  /// Set only when options.verify_unsat_proof and status == kUnsat:
  /// true iff the solver's refutation passed the independent RUP checker.
  bool proof_verified = false;
  /// Length of the logged refutation (0 unless proof verification ran).
  std::size_t proof_clauses = 0;
};

/// Routes `routing` in `num_tracks` tracks. kSat => `tracks` is a valid
/// detailed routing (the model check runs in every build type); kUnsat =>
/// provably unroutable at this width; kUnknown => timeout/stop, or a model
/// that failed the check (see `error`).
DetailedRouteResult RouteDetailed(const fpga::Arch& arch,
                                  const route::GlobalRouting& routing,
                                  int num_tracks,
                                  const DetailedRouteOptions& options = {});

/// Same, but on a prebuilt conflict graph (skips extraction; used when many
/// strategies run on one instance).
DetailedRouteResult RouteDetailedOnGraph(
    const graph::Graph& conflict_graph, int num_tracks,
    const DetailedRouteOptions& options = {});

}  // namespace satfr::flow
