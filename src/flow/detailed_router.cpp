#include "flow/detailed_router.h"

#include <utility>

#include "analysis/runner.h"
#include "flow/conflict_graph.h"
#include "flow/solve_step.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sat/clause_sink.h"
#include "sat/rup_checker.h"

namespace satfr::flow {
namespace {

/// `routing` is non-null only when the caller extracted the conflict graph
/// from a global routing itself; the selfcheck's flow-two-pin pass then
/// cross-checks the two.
DetailedRouteResult SolveOnGraph(const graph::Graph& conflict_graph,
                                 int num_tracks,
                                 const DetailedRouteOptions& options,
                                 double coloring_seconds,
                                 const route::GlobalRouting* routing) {
  DetailedRouteResult result;
  result.coloring_seconds = coloring_seconds;
  result.conflict_vertices = conflict_graph.num_vertices();
  result.conflict_edges = conflict_graph.num_edges();

  Stopwatch encode_watch;
  obs::TraceSpan encode_span(obs::GlobalTrace(), "encode", "route");
  encode_span.AddArg("instance", obs::JsonValue(RunLabel(options.run_label)));
  encode_span.AddArg("encoding", obs::JsonValue(options.encoding.name));
  encode_span.AddArg("symmetry",
                     obs::JsonValue(symmetry::ToString(options.heuristic)));
  encode_span.AddArg("width", obs::JsonValue(num_tracks));

  // The lint passes re-walk the CNF and the RUP checker re-propagates it, so
  // both need the materialized formula; those paths also pin the symmetry
  // sequence to this run, so a cached encoding cannot stand in for it.
  const bool materialize = options.selfcheck || options.verify_unsat_proof;
  const bool reuse = options.reuse_encoding != nullptr && !materialize;
  std::vector<graph::VertexId> sequence;
  if (!reuse) {
    sequence = symmetry::SymmetrySequence(conflict_graph, num_tracks,
                                          options.heuristic);
  }

  sat::Solver solver(options.solver);
  // Opened on the fresh solver: the step's window covers load and solve.
  SolveStep step(solver, "route", options.run_label, options.encoding.name,
                 options.heuristic, num_tracks);
  std::vector<sat::Clause> proof;
  if (options.verify_unsat_proof) solver.SetProofLog(&proof);
  if (options.exchange != nullptr && options.exchange_participant >= 0) {
    solver.SetClauseExchange(options.exchange, options.exchange_participant);
  }

  // Everyone except the materialized paths streams the encoder straight into
  // the solver and never holds an intermediate Cnf — unless a cached
  // instance is being reused, in which case its CNF bytes are loaded as-is.
  // A load that refutes the formula leaves the solver answering kUnsat.
  encode::ColoringLayout layout;
  encode::EncodedColoring encoded;
  if (reuse) {
    const encode::EncodedColoring& pre = *options.reuse_encoding;
    solver.AddCnf(pre.cnf);
    layout = static_cast<const encode::ColoringLayout&>(pre);
    result.reused_encoding = true;
  } else if (materialize) {
    encoded = encode::EncodeColoring(conflict_graph, num_tracks,
                                     options.encoding, sequence);
    if (options.selfcheck) {
      const analysis::AnalysisRunner runner = analysis::MakeDefaultRunner();
      analysis::AnalysisInput lint_input;
      lint_input.cnf = &encoded.cnf;
      lint_input.conflict_graph = &conflict_graph;
      lint_input.encoded = &encoded;
      lint_input.spec = &options.encoding;
      lint_input.symmetry_sequence = &sequence;
      lint_input.routing = routing;
      analysis::AnalysisReport report = runner.Run(lint_input);
      const bool broken = report.HasErrors();
      result.lint = std::move(report.diagnostics);
      if (broken) {
        // Never hand a formula that violates its own encoding contract to
        // the solver: its answer would say nothing about the routing
        // instance.
        result.encode_seconds = encode_watch.Seconds();
        result.status = sat::SolveResult::kUnknown;
        return result;
      }
    }
    solver.AddCnf(encoded.cnf);
    layout = std::move(static_cast<encode::ColoringLayout&>(encoded));
  } else {
    sat::SolverSink direct(solver);
    layout = encode::EncodeColoringToSink(conflict_graph, num_tracks,
                                          options.encoding, sequence, direct);
    direct.Finish();
    result.streamed_encode = true;
  }
  result.cnf_vars = layout.num_vars;
  result.cnf_clauses = layout.stats.TotalEmitted();
  result.encode_stats = layout.stats;
  result.encode_seconds = encode_watch.Seconds();
  encode_span.AddArg("vars", obs::JsonValue(result.cnf_vars));
  encode_span.AddArg("clauses",
                     obs::JsonValue(static_cast<std::uint64_t>(
                         result.cnf_clauses)));
  encode_span.End();

  step.record().coloring_seconds = result.coloring_seconds;
  step.record().cnf_vars = static_cast<std::uint64_t>(result.cnf_vars);
  step.record().cnf_clauses = static_cast<std::uint64_t>(result.cnf_clauses);
  const Deadline deadline = Deadline::FromTimeout(options.timeout_seconds);
  result.status = step.Solve({}, deadline, options.stop, "solve",
                             result.encode_seconds);
  result.solve_seconds = step.window().solve_seconds;
  result.solver_stats = solver.stats();
  {
    static const obs::MetricId solves =
        obs::GlobalMetrics().Counter("flow.solves");
    obs::GlobalMetrics().Add(solves);
  }

  if (result.status == sat::SolveResult::kSat) {
    result.error = encode::DecodeProperColoring(
        conflict_graph, layout, solver.model(), num_tracks, &result.tracks);
    if (!result.error.empty()) result.status = sat::SolveResult::kUnknown;
  } else if (result.status == sat::SolveResult::kUnsat &&
             options.verify_unsat_proof) {
    result.proof_clauses = proof.size();
    result.proof_verified = sat::VerifyRupRefutation(encoded.cnf, proof);
  }
  return result;
}

}  // namespace

DetailedRouteResult RouteDetailed(const fpga::Arch& arch,
                                  const route::GlobalRouting& routing,
                                  int num_tracks,
                                  const DetailedRouteOptions& options) {
  Stopwatch coloring_watch;
  const graph::Graph conflict_graph = BuildConflictGraph(arch, routing);
  const double coloring_seconds = coloring_watch.Seconds();
  return SolveOnGraph(conflict_graph, num_tracks, options, coloring_seconds,
                      &routing);
}

DetailedRouteResult RouteDetailedOnGraph(
    const graph::Graph& conflict_graph, int num_tracks,
    const DetailedRouteOptions& options) {
  return SolveOnGraph(conflict_graph, num_tracks, options,
                      /*coloring_seconds=*/0.0, /*routing=*/nullptr);
}

}  // namespace satfr::flow
