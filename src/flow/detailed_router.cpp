#include "flow/detailed_router.h"

#include <utility>

#include "flow/conflict_graph.h"
#include "flow/solve_step.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sat/clause_sink.h"
#include "sat/rup_checker.h"

namespace satfr::flow {
namespace {

DetailedRouteResult SolveOnGraph(const graph::Graph& conflict_graph,
                                 int num_tracks,
                                 const DetailedRouteOptions& options,
                                 double coloring_seconds) {
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

  const std::vector<graph::VertexId> sequence = symmetry::SymmetrySequence(
      conflict_graph, num_tracks, options.heuristic);

  sat::Solver solver(options.solver);
  // Opened on the fresh solver: the step's window covers load and solve.
  SolveStep step(solver, "route", options.run_label, options.encoding.name,
                 options.heuristic, num_tracks);
  std::vector<sat::Clause> proof;
  if (options.verify_unsat_proof) solver.SetProofLog(&proof);

  // The encoder streams straight into the solver. The RUP checker needs
  // the formula itself, so a proof run tees the same stream into a Cnf;
  // the solver sees identical clauses either way. A load that refutes the
  // formula leaves the solver answering kUnsat.
  sat::SolverSink direct(solver);
  sat::Cnf proof_cnf;
  sat::CnfCollectorSink collector(proof_cnf);
  sat::TeeSink tee(direct, collector);
  sat::ClauseSink& sink = options.verify_unsat_proof
                              ? static_cast<sat::ClauseSink&>(tee)
                              : direct;
  const encode::ColoringLayout layout = encode::EncodeColoringToSink(
      conflict_graph, num_tracks, options.encoding, sequence, sink);
  sink.Finish();
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
    result.proof_verified = sat::VerifyRupRefutation(proof_cnf, proof);
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
  return SolveOnGraph(conflict_graph, num_tracks, options, coloring_seconds);
}

DetailedRouteResult RouteDetailedOnGraph(
    const graph::Graph& conflict_graph, int num_tracks,
    const DetailedRouteOptions& options) {
  return SolveOnGraph(conflict_graph, num_tracks, options,
                      /*coloring_seconds=*/0.0);
}

}  // namespace satfr::flow
