#include "flow/solve_step.h"

namespace satfr::flow {

SolveStep::SolveStep(sat::Solver& solver, const char* phase,
                     const std::string& run_label,
                     const std::string& encoding,
                     symmetry::Heuristic heuristic, int width)
    : solver_(solver),
      trace_(obs::GlobalTrace()),
      report_(obs::GlobalReport()),
      before_(solver.stats()) {
  // Telemetry is pull-installed: with both sinks null a solve costs two
  // atomic loads here and nothing downstream. SetObserver re-baselines, so
  // the observed totals cover exactly the window computed below.
  if (trace_ == nullptr && report_ == nullptr) return;
  observer_.emplace(trace_);
  solver_.SetObserver(&*observer_);
  record_.instance = RunLabel(run_label);
  record_.phase = phase;
  record_.encoding = encoding;
  record_.symmetry = symmetry::ToString(heuristic);
  record_.width = width;
}

SolveStep::~SolveStep() {
  if (observer_.has_value()) solver_.SetObserver(nullptr);
}

sat::SolveResult SolveStep::Solve(const std::vector<sat::Lit>& assumptions,
                                  Deadline deadline,
                                  const std::atomic<bool>* stop,
                                  const std::string& span_name,
                                  double encode_seconds) {
  obs::TraceSpan span(trace_, span_name, record_.phase);
  span.AddArg("instance", obs::JsonValue(record_.instance));
  span.AddArg("width", obs::JsonValue(record_.width));
  const sat::SolveResult status =
      solver_.SolveWithAssumptions(assumptions, deadline, stop);
  span.AddArg("verdict", obs::JsonValue(sat::ToString(status)));
  span.End();
  window_ = solver_.stats().Since(before_);
  Report(status, encode_seconds);
  return status;
}

sat::SolveResult SolveStep::AnswerWithoutSearch(const std::string& span_name,
                                                double encode_seconds) {
  obs::TraceSpan span(trace_, span_name, record_.phase);
  span.AddArg("instance", obs::JsonValue(record_.instance));
  span.AddArg("width", obs::JsonValue(record_.width));
  span.AddArg("verdict", obs::JsonValue(sat::ToString(sat::SolveResult::kSat)));
  span.End();
  record_.witness = true;
  Report(sat::SolveResult::kSat, encode_seconds);
  return sat::SolveResult::kSat;
}

void SolveStep::Report(sat::SolveResult status, double encode_seconds) {
  if (report_ == nullptr) return;
  record_.verdict = sat::ToString(status);
  record_.encode_seconds = encode_seconds;
  record_.solve_seconds = window_.solve_seconds;
  record_.total_seconds =
      record_.coloring_seconds + encode_seconds + window_.solve_seconds;
  record_.SetSolverWindow(window_);
  const sat::LearntTierSizes tiers = solver_.TierSizes();
  record_.learnts_core = tiers.core;
  record_.learnts_tier2 = tiers.tier2;
  record_.learnts_local = tiers.local;
  record_.peak_clause_memory_bytes = solver_.ClauseMemoryBytes();
  if (observer_.has_value()) observer_->FillRecord(&record_);
  report_->Append(record_);
}

}  // namespace satfr::flow
