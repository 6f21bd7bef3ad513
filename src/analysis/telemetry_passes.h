// Telemetry lint pass: internal consistency of run-report records.
//
// A RunRecord carries the same solve window measured by two independent
// mechanisms — the solver-window stats (SolverStats subtraction around the
// solve call) and the `observed` block (restart-sample deltas accumulated
// through the SolverObserver hook). This pass cross-checks the two, the way
// `solver-invariants` cross-checks the arena: if an emission site stops
// flushing the final window, a stats field is double-counted, or the
// observer baseline drifts, the totals disagree and `satlint report` fails.
#pragma once

#include "analysis/runner.h"

namespace satfr::analysis {

/// Registers the telemetry passes:
///   telemetry-consistency (error) observed counter totals vs. the
///                                 solver-window stats, LBD-histogram mass
///                                 vs. learned count, verdict vocabulary
void AddTelemetryPasses(AnalysisRunner& runner);

}  // namespace satfr::analysis
