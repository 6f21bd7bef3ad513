#include "flow/incremental_min_width.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "encode/csp_to_cnf.h"
#include "graph/coloring_bounds.h"
#include "obs/run_report.h"
#include "obs/solver_trace.h"
#include "obs/trace.h"
#include "sat/clause_sink.h"

namespace satfr::flow {

namespace {

const char* RunLabel(const IncrementalMinWidthOptions& options) {
  return options.run_label.empty() ? "graph" : options.run_label.c_str();
}

// Starts a per-width "incremental" record: context filled in, window stats
// added by the caller once the width's query returns.
obs::RunRecord MakeWidthRecord(const IncrementalMinWidthOptions& options,
                               int width,
                               const encode::ColoringLayout& layout) {
  obs::RunRecord record;
  record.instance = RunLabel(options);
  record.phase = "incremental";
  record.encoding = options.encoding.name;
  record.symmetry = symmetry::ToString(options.heuristic);
  record.width = width;
  record.cnf_vars = static_cast<std::uint64_t>(layout.num_vars);
  record.cnf_clauses = static_cast<std::uint64_t>(layout.stats.TotalEmitted());
  return record;
}

// Decodes + validates a model at width `w`. These are real checks, not
// asserts: a decoded model that is not a proper in-bounds coloring means a
// solver or encoding bug, and Release builds must report it instead of
// returning garbage with a clean status.
void AcceptModel(const graph::Graph& conflict_graph,
                 const encode::ColoringLayout& layout,
                 const std::vector<bool>& model, int w,
                 IncrementalMinWidthResult* result) {
  std::vector<int> tracks = encode::DecodeColoring(layout, model);
  bool valid =
      static_cast<int>(tracks.size()) == conflict_graph.num_vertices() &&
      conflict_graph.IsProperColoring(tracks);
  for (const int track : tracks) {
    if (track < 0 || track >= w) valid = false;
  }
  if (!valid) {
    result->min_width = -1;
    result->proven_optimal = false;
    result->error =
        "decoded model at width " + std::to_string(w) +
        " is not a proper coloring within the width bound";
    return;
  }
  result->min_width = w;
  result->proven_optimal = true;  // every smaller width was refuted
  result->tracks = std::move(tracks);
  result->model_validated = true;
}

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
  const Deadline deadline = options.timeout_seconds > 0.0
                                ? Deadline::After(options.timeout_seconds)
                                : Deadline::Infinite();

  obs::TraceWriter* const trace = obs::GlobalTrace();
  obs::RunReportWriter* const report = obs::GlobalReport();

  // Stream the base encoding and the guard ladder straight into the solver —
  // the incremental flow never needs a materialized Cnf.
  sat::Solver solver(options.solver);
  sat::SolverSink sink(solver);
  obs::TraceSpan encode_span(trace, "encode_guarded", "incremental");
  encode_span.AddArg("instance", obs::JsonValue(RunLabel(options)));
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
    // Fresh observer per width: SetObserver re-baselines, so its observed
    // totals cover exactly this width's window — the same window the record
    // computes by SolverStats subtraction.
    const sat::SolverStats before = solver.stats();
    std::optional<obs::SolverTelemetryObserver> observer;
    if (trace != nullptr || report != nullptr) {
      observer.emplace(trace);
      solver.SetObserver(&*observer);
    }
    obs::TraceSpan width_span(trace, "width " + std::to_string(w),
                              "incremental");
    const sat::SolveResult status =
        solver.SolveWithAssumptions(assumptions, deadline);
    width_span.AddArg("verdict", obs::JsonValue(sat::ToString(status)));
    width_span.End();
    if (observer.has_value()) solver.SetObserver(nullptr);
    if (report != nullptr) {
      obs::RunRecord record = MakeWidthRecord(options, w, layout);
      record.verdict = sat::ToString(status);
      const sat::SolverStats window = solver.stats().Since(before);
      record.solve_seconds = window.solve_seconds;
      record.total_seconds = window.solve_seconds;
      record.SetSolverWindow(window);
      const sat::LearntTierSizes tiers = solver.TierSizes();
      record.learnts_core = tiers.core;
      record.learnts_tier2 = tiers.tier2;
      record.learnts_local = tiers.local;
      record.peak_clause_memory_bytes = solver.ClauseMemoryBytes();
      if (observer.has_value()) observer->FillRecord(&record);
      report->Append(record);
    }
    if (status == sat::SolveResult::kUnknown) break;  // timeout
    if (status == sat::SolveResult::kSat) {
      AcceptModel(conflict_graph, layout, solver.model(), w, &result);
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
