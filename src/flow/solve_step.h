// The one solve step of RouteDetailed* and RoutingSession::Solve: telemetry
// observer, trace span, the SAT call (or a caller-certified answer), the
// solver-stats window and the run record. A caller sets only the record
// fields its own path knows (formula size, coloring time, session deltas).
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "obs/run_report.h"
#include "obs/solver_trace.h"
#include "sat/solver.h"
#include "symmetry/symmetry.h"

namespace satfr::flow {

/// Telemetry label of a run: the caller's label, or "graph" when empty.
inline const char* RunLabel(const std::string& run_label) {
  return run_label.empty() ? "graph" : run_label.c_str();
}

class SolveStep {
 public:
  /// Attaches an observer (only when a trace or report sink is installed)
  /// and opens the stats window; both last until the step is destroyed.
  /// Open the step before loading a fresh solver to count the load in the
  /// window, or right before the query on a resident solver.
  SolveStep(sat::Solver& solver, const char* phase,
            const std::string& run_label, const std::string& encoding,
            symmetry::Heuristic heuristic, int width);
  ~SolveStep();
  SolveStep(const SolveStep&) = delete;
  SolveStep& operator=(const SolveStep&) = delete;

  obs::RunRecord& record() { return record_; }
  /// True when Solve appends the record (a report sink is installed).
  bool reporting() const { return report_ != nullptr; }

  /// Runs the query under a span named `span_name`, closes the window and
  /// appends the record (with `encode_seconds`) when reporting.
  sat::SolveResult Solve(const std::vector<sat::Lit>& assumptions,
                         Deadline deadline, const std::atomic<bool>* stop,
                         const std::string& span_name, double encode_seconds);

  /// Answers kSat without calling the solver, for a caller that certified
  /// its answer itself (the session's witness): the same span and record
  /// as Solve, with a zero solver window and the record's `witness` set.
  sat::SolveResult AnswerWithoutSearch(const std::string& span_name,
                                       double encode_seconds);

  /// Solver stats over the step's window (valid after Solve; zero after
  /// AnswerWithoutSearch).
  const sat::SolverStats& window() const { return window_; }

 private:
  // Fills the shared record fields and appends it when reporting.
  void Report(sat::SolveResult status, double encode_seconds);

  sat::Solver& solver_;
  obs::TraceWriter* const trace_;
  obs::RunReportWriter* const report_;
  std::optional<obs::SolverTelemetryObserver> observer_;
  const sat::SolverStats before_;
  sat::SolverStats window_;
  obs::RunRecord record_;
};

}  // namespace satfr::flow
