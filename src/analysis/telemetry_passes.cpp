#include "analysis/telemetry_passes.h"

#include <cstdint>
#include <memory>
#include <string>

#include "analysis/pass.h"
#include "obs/run_report.h"

namespace satfr::analysis {

namespace {

std::string RecordLocation(const obs::RunRecord& r, std::size_t index) {
  std::string loc = "record " + std::to_string(index);
  if (!r.instance.empty()) loc += " (" + r.instance;
  if (!r.instance.empty()) {
    loc += " W=" + std::to_string(r.width) + ")";
  }
  return loc;
}

class TelemetryConsistencyPass : public AnalysisPass {
 public:
  std::string_view name() const override { return "telemetry-consistency"; }
  std::string_view description() const override {
    return "run-report observed totals agree with the solver-window stats";
  }

  bool Applicable(const AnalysisInput& input) const override {
    return input.run_records != nullptr;
  }

  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    for (std::size_t i = 0; i < input.run_records->size(); ++i) {
      const obs::RunRecord& r = (*input.run_records)[i];
      const std::string loc = RecordLocation(r, i);

      if (r.verdict != "SAT" && r.verdict != "UNSAT" &&
          r.verdict != "UNKNOWN") {
        sink.Report(loc, "unknown verdict '" + r.verdict + "'");
      }

      // Each learnt clause increments exactly one LBD bucket, so the
      // histogram mass must equal the learned count — for merged
      // (cube-pool) records just as for single-solver windows.
      std::uint64_t lbd_mass = 0;
      for (const std::uint64_t b : r.lbd_histogram) lbd_mass += b;
      if (lbd_mass != r.learned) {
        sink.Report(loc, "LBD histogram mass " + std::to_string(lbd_mass) +
                             " != learned " + std::to_string(r.learned));
      }

      if (!r.has_observed) continue;
      const auto check = [&](const char* what, std::uint64_t observed,
                             std::uint64_t window) {
        if (observed != window) {
          sink.Report(loc, "observer hook drift: observed " +
                               std::string(what) + " " +
                               std::to_string(observed) +
                               " != solver-window " +
                               std::to_string(window));
        }
      };
      check("propagations", r.observed_propagations, r.propagations);
      check("conflicts", r.observed_conflicts, r.conflicts);
      check("restarts", r.observed_restarts, r.restarts);
      check("learned", r.observed_learned, r.learned);

      // Phase times are a partition of solving time: their sum cannot
      // exceed the solve wall time (small slack for clock granularity).
      const double phase_sum = r.observed_bcp_seconds +
                               r.observed_analyze_seconds +
                               r.observed_inprocess_seconds;
      if (r.solve_seconds > 0.0 &&
          phase_sum > r.solve_seconds * 1.05 + 0.01) {
        sink.Report(loc, "phase times sum to " + std::to_string(phase_sum) +
                             "s, exceeding solve time " +
                             std::to_string(r.solve_seconds) + "s");
      }
    }
  }
};

}  // namespace

void AddTelemetryPasses(AnalysisRunner& runner) {
  runner.AddPass(std::make_unique<TelemetryConsistencyPass>());
}

}  // namespace satfr::analysis
