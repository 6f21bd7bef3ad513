// Bridges the sat::SolverObserver restart hook into the telemetry layer.
//
// One SolverTelemetryObserver is attached per solver per solve window (the
// flow router, the routing session, and each cube worker create their
// own). On every restart sample it
//   - lays the phase split out as three consecutive sub-spans (bcp /
//     analyze / inprocess) on the observer's trace track, so Perfetto shows
//     where each restart window's time went,
//   - bumps the global metrics counters (solver.propagations, .conflicts,
//     .restarts, .learned) and the per-window conflict histogram,
//   - accumulates an independent running total of the window deltas.
// The accumulated totals feed the run record's `observed` block; satlint's
// telemetry-consistency pass cross-checks them against the solver-window
// stats computed directly from SolverStats subtraction.
#pragma once

#include <cstdint>

#include "obs/run_report.h"
#include "obs/trace.h"
#include "sat/solver.h"

namespace satfr::obs {

class SolverTelemetryObserver : public sat::SolverObserver {
 public:
  /// `writer` may be null: counters and the observed totals still
  /// accumulate (the `--report`-only configuration). `tid` pins the spans
  /// to a trace track; 0 means the calling thread's track.
  explicit SolverTelemetryObserver(TraceWriter* writer,
                                   std::uint64_t tid = 0);

  void OnRestartSample(const sat::SolverRestartSample& sample) override;

  /// Running total of every window delta seen so far.
  const sat::SolverStats& observed() const { return observed_; }

  /// Tier sizes from the most recent sample.
  const sat::LearntTierSizes& last_tiers() const { return last_tiers_; }

  /// Copies the observed totals into `record`'s cross-check block.
  void FillRecord(RunRecord* record) const;

 private:
  TraceWriter* writer_;
  std::uint64_t tid_;
  std::uint64_t window_start_us_ = 0;
  sat::SolverStats observed_;
  sat::LearntTierSizes last_tiers_;
};

}  // namespace satfr::obs
