#include "flow/routing_session.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "encode/cube.h"
#include "flow/solve_step.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace satfr::flow {

namespace {

void EraseValue(std::vector<graph::VertexId>& list, graph::VertexId value) {
  const auto it = std::find(list.begin(), list.end(), value);
  assert(it != list.end() && "edge bookkeeping out of sync");
  list.erase(it);
}

struct DeltaMetrics {
  obs::MetricId applied;
  obs::MetricId micros;
  DeltaMetrics() {
    applied = obs::GlobalMetrics().Counter("session.deltas_applied");
    micros = obs::GlobalMetrics().Histogram("session.delta_micros");
  }
};

// Emits the width guard ladder over `layout` (K = layout.num_colors): one
// guard g_W per W in [1, K), numbered consecutively from the sink's next
// variable; then, per W in increasing order, the binary ~g_W \/ g_{W+1}
// (when W+1 < K) and, per vertex v, ~cube_v(W) \/ ~g_W. So g_W forbids
// track W everywhere and implies g_{W+1}: assuming g_W caps the usable
// tracks at W, and assuming no guard leaves all K. Returns the guards
// indexed by width (K entries, -1 at width 0).
std::vector<sat::Var> EmitWidthLadder(const encode::ColoringLayout& layout,
                                      sat::ClauseSink& sink) {
  const int k = layout.num_colors;
  std::vector<sat::Var> guard(static_cast<std::size_t>(k), -1);
  for (int w = 1; w < k; ++w) {
    guard[static_cast<std::size_t>(w)] = sink.EmitVar();
  }
  sat::Clause scratch;
  for (int w = 1; w < k; ++w) {
    const sat::Var g = guard[static_cast<std::size_t>(w)];
    if (w + 1 < k) {
      sink.EmitBinary(sat::Lit::Neg(g),
                      sat::Lit::Pos(guard[static_cast<std::size_t>(w + 1)]));
    }
    for (const int offset : layout.vertex_offset) {
      scratch = encode::NegateCube(
          layout.domain.value_cubes[static_cast<std::size_t>(w)], offset);
      scratch.push_back(sat::Lit::Neg(g));
      sink.EmitClause(scratch);
    }
  }
  return guard;
}

void RecordDelta(double seconds) {
  static DeltaMetrics metrics;
  obs::GlobalMetrics().Add(metrics.applied);
  obs::GlobalMetrics().Observe(
      metrics.micros, static_cast<std::uint64_t>(seconds * 1e6));
}

}  // namespace

RoutingSession::RoutingSession(const graph::Graph& conflict_graph,
                               int max_width,
                               const RoutingSessionOptions& options)
    : options_(options),
      max_width_(max_width),
      num_nets_(conflict_graph.num_vertices()),
      solver_(options.solver),
      solver_sink_(solver_) {
  if (max_width_ < 1) {
    error_ = "max_width must be >= 1";
    return;
  }
  if (options_.audit) {
    audit_cnf_.emplace();
    audit_sink_.emplace(*audit_cnf_);
    tee_.emplace(solver_sink_, *audit_sink_);
    grouped_.emplace(*tee_);
  } else {
    grouped_.emplace(solver_sink_);
  }

  obs::TraceSpan span(obs::GlobalTrace(), "session_encode", "session");
  span.AddArg("instance", obs::JsonValue(RunLabel(options_.run_label)));
  span.AddArg("max_width", obs::JsonValue(max_width_));

  // Base layout first, then the width-ladder guards, then (only) activation
  // variables, however many selectors the deltas allocate later.
  layout_ = encode::MakeColoringLayout(conflict_graph, max_width_,
                                       options_.encoding);
  grouped_->EnsureVars(layout_.num_vars);

  sequence_ = symmetry::SymmetrySequence(conflict_graph, max_width_,
                                         options_.heuristic);
  sym_position_.assign(static_cast<std::size_t>(num_nets_), 0);
  for (std::size_t j = 0; j < sequence_.size(); ++j) {
    sym_position_[static_cast<std::size_t>(sequence_[j])] =
        static_cast<int>(j) + 1;
  }

  // Emitted outside every group — the ladder is graph-independent, so no
  // delta ever touches it.
  guard_ = EmitWidthLadder(layout_, *grouped_);

  // Everything from here up is the base numbering; everything from here on
  // is a selector.
  solver_.ReserveActivationVars(num_nets_);
  grouped_->ReserveClauses(encode::ExpectedColoringClauses(
      conflict_graph, layout_.domain, max_width_, sequence_.size()));

  activation_.assign(static_cast<std::size_t>(num_nets_), -1);
  active_.assign(static_cast<std::size_t>(num_nets_), 1);
  hint_.assign(static_cast<std::size_t>(num_nets_), -1);
  partner_mark_.assign(static_cast<std::size_t>(num_nets_), 0);
  owned_.assign(static_cast<std::size_t>(num_nets_), {});
  owned_by_.assign(static_cast<std::size_t>(num_nets_), {});
  for (graph::VertexId v = 0; v < num_nets_; ++v) {
    for (const graph::VertexId u : conflict_graph.Neighbors(v)) {
      if (u < v) {
        owned_[static_cast<std::size_t>(v)].push_back(u);
        owned_by_[static_cast<std::size_t>(u)].push_back(v);
      }
    }
  }
  for (graph::VertexId v = 0; v < num_nets_; ++v) EmitGroup(v);
  // The session is open: its binaries leave the load buffer for the frozen
  // layer now rather than at the first delta or solve.
  solver_.FinishLoad();
  num_active_ = num_nets_;
  session_stats_.full_encodes = 1;
  span.AddArg("clauses", obs::JsonValue(grouped_->num_clauses()));
  span.End();

  if (!solver_.okay()) {
    // Every emitted clause is either guarded by a selector or part of the
    // ladder, so the bare clause set cannot be contradictory. Defensive.
    error_ = "resident solver refuted the guarded formula at encode time";
    return;
  }
  constructed_ok_ = true;
}

void RoutingSession::EmitGroup(graph::VertexId net) {
  encode::NetGroupedSink& sink = *grouped_;
  const int offset = layout_.vertex_offset[static_cast<std::size_t>(net)];
  sat::Clause scratch;
  const sat::Var selector = sink.BeginGroup(net);
  for (const sat::Clause& clause : layout_.domain.structural) {
    encode::EmitShiftedClause(clause, offset, sink, scratch);
  }
  // The restriction "sequence vertex j (1-based) uses colors < j" is sound
  // for any edge set — renaming the sequence vertices' color classes in
  // first-appearance order satisfies it for every proper coloring — so a
  // re-emitted group keeps its original position even after the graph
  // around it changed.
  const int position = sym_position_[static_cast<std::size_t>(net)];
  if (position > 0) {
    for (int d = position; d < layout_.num_colors; ++d) {
      encode::EmitNegatedCube(
          layout_.domain.value_cubes[static_cast<std::size_t>(d)], offset,
          sink, scratch);
    }
  }
  for (const graph::VertexId u : owned_[static_cast<std::size_t>(net)]) {
    // Partners are active, so their selectors are live; the cross guard
    // makes each conflict clause vacuous the moment the partner retires.
    const sat::Lit partner_guard =
        sat::Lit::Neg(activation_[static_cast<std::size_t>(u)]);
    const int offset_u = layout_.vertex_offset[static_cast<std::size_t>(u)];
    for (int d = 0; d < layout_.num_colors; ++d) {
      const encode::Cube& cube =
          layout_.domain.value_cubes[static_cast<std::size_t>(d)];
      encode::EmitGuardedConflictClause(cube, offset_u, cube, offset,
                                        partner_guard, sink, scratch);
    }
  }
  sink.EndGroup();
  activation_[static_cast<std::size_t>(net)] = selector;
  ++session_stats_.groups_emitted;
}

void RoutingSession::RetireGroup(graph::VertexId net) {
  sat::Var& selector = activation_[static_cast<std::size_t>(net)];
  if (selector < 0) return;
  solver_.RetireActivationGroup(selector);
  selector = -1;
  ++session_stats_.groups_retired;
}

bool RoutingSession::RipUp(graph::VertexId net) {
  if (!constructed_ok_) return false;
  error_.clear();
  if (net < 0 || net >= num_nets_) {
    error_ = "RipUp: net " + std::to_string(net) + " out of range";
    return false;
  }
  if (!active_[static_cast<std::size_t>(net)]) {
    error_ = "RipUp: net " + std::to_string(net) + " is already inactive";
    return false;
  }
  Stopwatch stopwatch;
  const std::uint64_t clauses_before = grouped_->num_clauses();
  obs::TraceSpan span(obs::GlobalTrace(), "ripup net " + std::to_string(net),
                      "session");

  // Retiring `net`'s selector silences every clause that mentions the net:
  // its own group directly, and partner-owned conflict clauses through the
  // cross guard each of them carries. The partners' groups stay resident
  // untouched — a rip-up emits exactly one unit clause.
  const std::size_t detached =
      owned_by_[static_cast<std::size_t>(net)].size();
  for (const graph::VertexId w : owned_by_[static_cast<std::size_t>(net)]) {
    EraseValue(owned_[static_cast<std::size_t>(w)], net);
  }
  owned_by_[static_cast<std::size_t>(net)].clear();
  for (const graph::VertexId u : owned_[static_cast<std::size_t>(net)]) {
    EraseValue(owned_by_[static_cast<std::size_t>(u)], net);
  }
  owned_[static_cast<std::size_t>(net)].clear();
  RetireGroup(net);
  active_[static_cast<std::size_t>(net)] = 0;
  --num_active_;

  ++session_stats_.deltas_applied;
  session_stats_.partner_detachments += detached;
  session_stats_.delta_clauses +=
      grouped_->num_clauses() - clauses_before;
  const double seconds = stopwatch.Seconds();
  session_stats_.delta_seconds += seconds;
  RecordDelta(seconds);
  span.AddArg("detached",
              obs::JsonValue(static_cast<std::uint64_t>(detached)));
  span.AddArg("clauses_emitted",
              obs::JsonValue(grouped_->num_clauses() - clauses_before));
  return true;
}

bool RoutingSession::Reroute(graph::VertexId net,
                             const std::vector<graph::VertexId>& conflicts) {
  if (!constructed_ok_) return false;
  error_.clear();
  if (net < 0 || net >= num_nets_) {
    error_ = "Reroute: net " + std::to_string(net) + " out of range";
    return false;
  }
  // Partners are marked as they pass, so a duplicate is found in one scan;
  // the marks of the passed prefix are cleared before returning.
  std::size_t marked = 0;
  for (const graph::VertexId u : conflicts) {
    if (u < 0 || u >= num_nets_) {
      error_ = "Reroute: partner " + std::to_string(u) + " out of range";
    } else if (u == net) {
      error_ = "Reroute: net cannot conflict with itself";
    } else if (!active_[static_cast<std::size_t>(u)]) {
      error_ = "Reroute: partner " + std::to_string(u) + " is inactive";
    } else if (partner_mark_[static_cast<std::size_t>(u)]) {
      error_ = "Reroute: duplicate partner " + std::to_string(u);
    } else {
      partner_mark_[static_cast<std::size_t>(u)] = 1;
      ++marked;
      continue;
    }
    break;
  }
  for (std::size_t i = 0; i < marked; ++i) {
    partner_mark_[static_cast<std::size_t>(conflicts[i])] = 0;
  }
  if (!error_.empty()) return false;
  if (active_[static_cast<std::size_t>(net)] && !RipUp(net)) return false;

  Stopwatch stopwatch;
  const std::uint64_t clauses_before = grouped_->num_clauses();
  obs::TraceSpan span(obs::GlobalTrace(),
                      "reroute net " + std::to_string(net), "session");
  // The re-routed net becomes the owner of every one of its edges (the
  // "most recently re-routed endpoint" rule), so a later rip-up of a
  // partner bumps this net rather than leaving a stale edge clause behind.
  owned_[static_cast<std::size_t>(net)] = conflicts;
  for (const graph::VertexId u : conflicts) {
    owned_by_[static_cast<std::size_t>(u)].push_back(net);
  }
  EmitGroup(net);
  active_[static_cast<std::size_t>(net)] = 1;
  ++num_active_;

  ++session_stats_.deltas_applied;
  session_stats_.delta_clauses +=
      grouped_->num_clauses() - clauses_before;
  const double seconds = stopwatch.Seconds();
  session_stats_.delta_seconds += seconds;
  RecordDelta(seconds);
  span.AddArg("conflicts",
              obs::JsonValue(static_cast<std::uint64_t>(conflicts.size())));
  span.AddArg("clauses_emitted",
              obs::JsonValue(grouped_->num_clauses() - clauses_before));
  return true;
}

bool RoutingSession::HintsFormRouting(int width) const {
  for (graph::VertexId n = 0; n < num_nets_; ++n) {
    if (!active_[static_cast<std::size_t>(n)]) continue;
    const int track = hint_[static_cast<std::size_t>(n)];
    if (track < 0 || track >= width) return false;
    for (const graph::VertexId u : owned_[static_cast<std::size_t>(n)]) {
      if (hint_[static_cast<std::size_t>(u)] == track) return false;
    }
  }
  return true;
}

SessionSolveResult RoutingSession::Solve(int width) {
  SessionSolveResult out;
  if (!constructed_ok_) {
    out.error = error_.empty() ? "session failed to construct" : error_;
    return out;
  }
  error_.clear();
  if (width < 1 || width > max_width_) {
    out.error = "Solve: width " + std::to_string(width) +
                " outside [1, " + std::to_string(max_width_) + "]";
    return out;
  }

  SolveStep step(solver_, "session", options_.run_label,
                 options_.encoding.name, options_.heuristic, width);
  // The per-record delta window: everything applied since the previous
  // Solve record, with the emission time reported as encode_seconds.
  obs::RunRecord& record = step.record();
  record.deltas_applied = session_stats_.deltas_applied - reported_deltas_;
  record.groups_retired = session_stats_.groups_retired - reported_retired_;
  record.cnf_vars = static_cast<std::uint64_t>(solver_.num_vars());
  record.cnf_clauses = grouped_->num_clauses();
  const double delta_seconds =
      session_stats_.delta_seconds - reported_delta_seconds_;
  // Witness first: if the tracks of the last SAT answer still route every
  // active net properly at `width`, they are the answer and the solver is
  // not consulted. The check is the same one a decoded model must pass.
  out.witness = HintsFormRouting(width);
  if (out.witness) {
    out.status = step.AnswerWithoutSearch(
        "session witness width " + std::to_string(width), delta_seconds);
    ++session_stats_.witness_answers;
  } else {
    assumptions_.clear();
    if (width < max_width_) {
      assumptions_.push_back(
          sat::Lit::Pos(guard_[static_cast<std::size_t>(width)]));
    }
    for (graph::VertexId n = 0; n < num_nets_; ++n) {
      if (active_[static_cast<std::size_t>(n)]) {
        assumptions_.push_back(
            sat::Lit::Pos(activation_[static_cast<std::size_t>(n)]));
      }
    }
    out.status = step.Solve(
        assumptions_, Deadline::FromTimeout(options_.timeout_seconds),
        /*stop=*/nullptr, "session solve width " + std::to_string(width),
        delta_seconds);
    out.solve_seconds = step.window().solve_seconds;
  }
  ++session_stats_.solves;
  if (step.reporting()) {
    reported_deltas_ = session_stats_.deltas_applied;
    reported_retired_ = session_stats_.groups_retired;
    reported_delta_seconds_ = session_stats_.delta_seconds;
  }

  if (out.status == sat::SolveResult::kSat && !out.witness) {
    // The model becomes the new hints. Only active nets' tracks mean
    // anything; an inactive net keeps the hint it had when it was ripped up.
    const std::vector<int> tracks =
        encode::DecodeColoring(layout_, solver_.model());
    bool valid = static_cast<int>(tracks.size()) == num_nets_;
    for (graph::VertexId n = 0; valid && n < num_nets_; ++n) {
      if (active_[static_cast<std::size_t>(n)]) {
        hint_[static_cast<std::size_t>(n)] =
            tracks[static_cast<std::size_t>(n)];
      }
    }
    if (!valid || !HintsFormRouting(width)) {
      // Real check, not an assert: a bad decode means a solver or encoding
      // bug and must surface in Release builds too.
      out.status = sat::SolveResult::kUnknown;
      out.error = "decoded model at width " + std::to_string(width) +
                  " is not a proper routing of the active nets";
      return out;
    }
  } else if (out.status == sat::SolveResult::kUnsat && !solver_.okay()) {
    // Cannot happen: every clause is retractable or ladder-guarded.
    out.error = "resident solver refuted the formula outright";
  }
  if (out.status == sat::SolveResult::kSat) {
    out.tracks = hint_;
    for (graph::VertexId n = 0; n < num_nets_; ++n) {
      if (!active_[static_cast<std::size_t>(n)]) {
        out.tracks[static_cast<std::size_t>(n)] = -1;
      }
    }
  }
  return out;
}

graph::Graph RoutingSession::ActiveConflictGraph() const {
  graph::Graph g(num_nets_);
  for (graph::VertexId v = 0; v < num_nets_; ++v) {
    for (const graph::VertexId u : owned_[static_cast<std::size_t>(v)]) {
      g.AddEdge(u, v);
    }
  }
  return g;
}

}  // namespace satfr::flow
