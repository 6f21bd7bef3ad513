// A long-lived incremental routing session: extract once, encode once,
// then absorb net-level rip-up/re-route deltas by flipping assumptions on a
// resident solver, and answer a query from the last routing when it still
// holds.
//
// The paper's flow re-extracts the conflict graph and re-encodes the whole
// channel for every query. RoutingSession encodes once; a query either
// re-uses the last routing or searches under assumptions, where a width
// guard ladder selects the *width* and one activation literal per net
// selects the *nets*:
//
//   * Construction encodes the initial conflict graph at `max_width` once,
//     streamed through a NetGroupedSink into the resident solver. Every
//     net's clauses — structural, symmetry restriction, and the conflict
//     clauses of the edges it owns — live in one group guarded by the net's
//     activation literal. The width guard ladder (g_W forbids track W
//     everywhere and implies g_{W+1}) is emitted unguarded ahead of the
//     groups, so a searching Solve(W) is one SolveWithAssumptions({g_W} +
//     active selectors) call. The session is the ladder's only writer.
//
//   * Every conflict clause carries BOTH endpoints' guards
//     (~a_owner v ~a_partner v conflict), so an edge dies the moment either
//     endpoint's group is retired. RipUp(net) is therefore pure
//     deactivation: one permanent unit ~selector (the solver reclaims the
//     group's clauses and every learnt that leaned on it once enough
//     retirements have accumulated) plus local edge bookkeeping — the
//     surviving partners' clauses are never touched.
//
//   * Reroute(net, conflicts) gives the net a fresh group owning all its
//     new edges, under a fresh activation variable. Edge ownership — every
//     conflict edge is emitted by exactly one endpoint, initially the
//     larger id, thereafter the most recently re-routed endpoint — keeps
//     each edge's clauses in exactly one group; a partner's old guarded
//     clauses toward a ripped-and-revived net stay dead because they
//     reference the net's retired selector, and the revived net's Reroute
//     re-emits exactly the edges that should exist.
//
//   * Witness first. Each net keeps its track from the last SAT answer the
//     solver gave as a hint; a rip-up or re-route leaves the hint in place.
//     Solve(W) first checks whether the hints of the active nets are a
//     proper routing at W (every track in [0, W), no owned edge joining two
//     equal tracks) — the same check every decoded model must pass. If so,
//     the hints are the answer and the solver is not called; otherwise the
//     solver runs as above and a SAT answer refreshes the hints. kUnsat
//     therefore always comes from the solver.
//
// No step re-extracts a conflict graph or re-encodes an unchanged net; a
// delta costs emitting one or a few net groups (microseconds-to-
// milliseconds) against a warm solver that keeps everything it has learned
// about the untouched nets.
//
// Learnt soundness: assumptions are reasonless decisions, so any learnt
// whose derivation used a group's clauses under the selector assumption
// contains the negated selector — retiring the group satisfies those
// learnts at level 0 and the next simplification sweep drops them. Learnts
// over base-layout variables only are consequences of the guarded clause
// database itself and stay valid across every delta.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "encode/csp_to_cnf.h"
#include "encode/net_group.h"
#include "encode/registry.h"
#include "graph/graph.h"
#include "sat/clause_sink.h"
#include "sat/solver.h"
#include "symmetry/symmetry.h"

namespace satfr::flow {

struct RoutingSessionOptions {
  encode::EncodingSpec encoding = encode::GetEncoding("muldirect");
  symmetry::Heuristic heuristic = symmetry::Heuristic::kNone;
  sat::SolverOptions solver = sat::SolverOptions::SiegeLike();
  /// Wall-clock budget per Solve call; <= 0 means unlimited.
  double timeout_seconds = 0.0;
  /// Telemetry label (trace spans, run-report records).
  std::string run_label;
  /// Mirror every emitted clause into an internally kept Cnf (audit_cnf())
  /// so tests and the satlint net-group-hygiene pass can audit the full
  /// stream, deltas included. Costs memory proportional to everything ever
  /// emitted; off by default.
  bool audit = false;
};

struct SessionSolveResult {
  sat::SolveResult status = sat::SolveResult::kUnknown;
  /// Track per net, -1 for inactive nets; filled only on kSat (validated:
  /// in [0, width), proper on every active conflict edge).
  std::vector<int> tracks;
  /// True when the tracks are the last routing, still proper at this
  /// width, and the solver was not called (solve_seconds is then 0).
  bool witness = false;
  double solve_seconds = 0.0;
  /// Non-empty on a malformed query or an internal validation failure.
  std::string error;
};

/// Lifetime counters proving the incremental contract: after construction
/// `full_encodes` stays 1 and `graph_extractions` stays 0 no matter how
/// many deltas are applied.
struct SessionStats {
  std::uint64_t deltas_applied = 0;   // RipUp / Reroute calls that took
  std::uint64_t groups_emitted = 0;   // net groups streamed (initial + delta)
  std::uint64_t groups_retired = 0;   // groups permanently deactivated
  std::uint64_t partner_detachments = 0;  // edges owned by a partner that a
                                          // rip-up silenced via the cross
                                          // guard (no clause re-emission)
  std::uint64_t delta_clauses = 0;    // clauses emitted by deltas
  std::uint64_t solves = 0;           // Solve calls answered, witness
                                      // answers included
  std::uint64_t witness_answers = 0;  // solves answered from the hints
  std::uint64_t full_encodes = 0;     // 1 after construction, never more
  std::uint64_t graph_extractions = 0;  // always 0: the session never
                                        // rebuilds a conflict graph
  double delta_seconds = 0.0;         // total emission time of all deltas
};

class RoutingSession {
 public:
  /// Encodes `conflict_graph` once at `max_width` tracks (the ceiling every
  /// later Solve must stay under — typically the DSATUR width). Check ok()
  /// before use.
  RoutingSession(const graph::Graph& conflict_graph, int max_width,
                 const RoutingSessionOptions& options = {});

  RoutingSession(const RoutingSession&) = delete;
  RoutingSession& operator=(const RoutingSession&) = delete;

  /// True once construction succeeded; per-call failures (bad net id, bad
  /// width) do NOT clear it — check the bool result and error() per call.
  bool ok() const { return constructed_ok_; }
  /// Message of the most recent failed call (or of construction).
  const std::string& error() const { return error_; }

  int max_width() const { return max_width_; }
  int num_nets() const { return num_nets_; }
  bool NetActive(graph::VertexId net) const {
    return net >= 0 && net < num_nets_ &&
           active_[static_cast<std::size_t>(net)];
  }
  int num_active() const { return num_active_; }

  /// Deactivates `net`: retires its clause group (which also silences
  /// partner-owned edge clauses through the cross guard), removes every
  /// conflict edge incident to it from the bookkeeping, and drops it from
  /// the assumption set. False if the net is invalid or already inactive
  /// (error() says why).
  bool RipUp(graph::VertexId net);

  /// (Re-)activates `net` with exactly the conflict edges {net, u} for u in
  /// `conflicts`: rips the net up first if it is active, then emits a fresh
  /// group owning all the new edges. Partners must be distinct, active, and
  /// != net. False on a malformed request (the session is unchanged).
  bool Reroute(graph::VertexId net,
               const std::vector<graph::VertexId>& conflicts);

  /// Solves the current netlist state at `width` tracks (1 <= width <=
  /// max_width): from the hints when they still form a proper routing at
  /// `width`, otherwise on the resident solver — assumptions only, no
  /// re-encode.
  SessionSolveResult Solve(int width);

  const SessionStats& session_stats() const { return session_stats_; }
  const sat::Solver& solver() const { return solver_; }
  const encode::ColoringLayout& layout() const { return layout_; }
  const encode::NetGroupTable& group_table() const {
    return grouped_->table();
  }
  /// The audit mirror (options.audit), nullptr otherwise.
  const sat::Cnf* audit_cnf() const {
    return audit_cnf_ ? &*audit_cnf_ : nullptr;
  }

  /// Materializes the current conflict graph from the session's edge
  /// bookkeeping (inactive nets are isolated vertices). For equivalence
  /// checks against a fresh encode — the session itself never calls this.
  graph::Graph ActiveConflictGraph() const;

 private:
  // Emits `net`'s group under a fresh selector: its structural clauses,
  // its symmetry restriction, and one conflict clause per owned edge per
  // color, each carrying the partner's negated selector as cross guard.
  void EmitGroup(graph::VertexId net);
  // Retires `net`'s current group in the resident solver.
  void RetireGroup(graph::VertexId net);
  // True if every active net has a hint in [0, width) and no owned edge
  // joins two equal hints.
  bool HintsFormRouting(int width) const;

  RoutingSessionOptions options_;
  int max_width_ = 0;
  int num_nets_ = 0;
  int num_active_ = 0;
  bool constructed_ok_ = false;
  std::string error_;

  sat::Solver solver_;
  sat::SolverSink solver_sink_;
  std::optional<sat::Cnf> audit_cnf_;
  std::optional<sat::CnfCollectorSink> audit_sink_;
  std::optional<sat::TeeSink> tee_;
  std::optional<encode::NetGroupedSink> grouped_;

  encode::ColoringLayout layout_;
  std::vector<graph::VertexId> sequence_;
  std::vector<int> sym_position_;        // 1-based sequence position, 0 = none
  std::vector<sat::Var> guard_;          // width ladder, index = width
  std::vector<sat::Var> activation_;     // current selector per net (-1 = none)
  std::vector<char> active_;
  // Track per net from the last SAT answer of the solver, -1 = none. Kept
  // across rip-ups and re-routes; only a solver SAT answer rewrites it.
  std::vector<int> hint_;
  std::vector<char> partner_mark_;       // scratch for Reroute, all 0
  // Edge bookkeeping: owned_[n] = partners of edges n owns; owned_by_[n] =
  // nets owning an edge to n. Together they cover every current edge
  // exactly once from each side.
  std::vector<std::vector<graph::VertexId>> owned_;
  std::vector<std::vector<graph::VertexId>> owned_by_;

  SessionStats session_stats_;
  std::vector<sat::Lit> assumptions_;    // scratch for Solve
  // High-water marks of the last run-report record (per-record windows).
  std::uint64_t reported_deltas_ = 0;
  std::uint64_t reported_retired_ = 0;
  double reported_delta_seconds_ = 0.0;
};

}  // namespace satfr::flow
