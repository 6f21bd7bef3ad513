#include "flow/incremental_min_width.h"

#include <algorithm>
#include <string>

#include "common/stopwatch.h"
#include "encode/csp_to_cnf.h"
#include "flow/solve_step.h"
#include "graph/coloring_bounds.h"
#include "obs/trace.h"
#include "sat/clause_sink.h"

namespace satfr::flow {

namespace {

constexpr const char kRefutedBelowDsatur[] =
    "formula refuted outright below the DSATUR-certified width "
    "(guarded UNSAT must stay retractable)";

}  // namespace

IncrementalMinWidthResult FindMinimumWidthIncremental(
    const graph::Graph& conflict_graph, int lower_bound,
    const IncrementalMinWidthOptions& options) {
  Stopwatch stopwatch;
  IncrementalMinWidthResult result;
  // K_max: a width DSATUR certifies as routable; the search cannot pass it.
  const int k_max = std::max(
      1, graph::NumColorsUsed(graph::DsaturColoring(conflict_graph)));
  const int start = std::max(1, std::min(lower_bound, k_max));
  const std::vector<graph::VertexId> sequence =
      symmetry::SymmetrySequence(conflict_graph, k_max, options.heuristic);
  const Deadline deadline = Deadline::FromTimeout(options.timeout_seconds);

  // Stream the base encoding and the guard ladder straight into the solver —
  // the incremental flow never needs a materialized Cnf.
  sat::Solver solver(options.solver);
  sat::SolverSink sink(solver);
  obs::TraceSpan encode_span(obs::GlobalTrace(), "encode_guarded",
                             "incremental");
  encode_span.AddArg("instance", obs::JsonValue(RunLabel(options.run_label)));
  encode_span.AddArg("k_max", obs::JsonValue(k_max));
  const encode::ColoringLayout layout = encode::EncodeColoringToSink(
      conflict_graph, k_max, options.encoding, sequence, sink);
  const std::vector<sat::Var> guard =
      encode::EmitWidthLadder(layout, start, sink);
  encode_span.End();
  if (!sink.Finish()) {
    // Encoding contradictory without any guard: no width up to k_max works,
    // which cannot happen (k_max is DSATUR-certified). Defensive bail-out.
    result.error = kRefutedBelowDsatur;
    result.total_seconds = stopwatch.Seconds();
    return result;
  }

  for (int w = start; w <= k_max; ++w) {
    ++result.widths_tested;
    std::vector<sat::Lit> assumptions;
    if (w < k_max) {
      assumptions.push_back(
          sat::Lit::Pos(guard[static_cast<std::size_t>(w)]));
    }
    SolveStep step(solver, "incremental", options.run_label,
                   options.encoding.name, options.heuristic, w);
    step.record().cnf_vars = static_cast<std::uint64_t>(layout.num_vars);
    step.record().cnf_clauses =
        static_cast<std::uint64_t>(layout.stats.TotalEmitted());
    const sat::SolveResult status =
        step.Solve(assumptions, deadline, /*stop=*/nullptr,
                   "width " + std::to_string(w), /*encode_seconds=*/0.0);
    if (status == sat::SolveResult::kUnknown) break;  // timeout
    if (status == sat::SolveResult::kSat) {
      result.error = encode::DecodeProperColoring(
          conflict_graph, layout, solver.model(), w, &result.tracks);
      if (result.error.empty()) {
        result.min_width = w;
        result.proven_optimal = true;  // every smaller width was refuted
      }
      break;
    }
    if (!solver.okay()) {
      result.error = kRefutedBelowDsatur;
      break;
    }
  }
  result.solver_stats = solver.stats();
  result.total_seconds = stopwatch.Seconds();
  return result;
}

}  // namespace satfr::flow
