// Source-scan lint layer (`satlint sources <file...>`): textual contracts
// over the repository's own source files.
//
// Unlike the artifact passes, these inspect code, not CNF — the first
// client is the concurrency toolkit: every atomic, fence, and mutex in the
// lock-free layers (src/cube, src/obs) must go
// through the mc:: shim so the model checker in src/mc can see it. A raw
// std::atomic in those files is invisible to schedule exploration and
// therefore unverified — exactly the regression this pass exists to catch.
#pragma once

#include "analysis/runner.h"

namespace satfr::analysis {

/// Registers the source-scan passes:
///   mc-coverage (error) model-checked directories use the mc:: shim, not
///                       raw std::atomic / std::mutex / fences
void AddSourcePasses(AnalysisRunner& runner);

}  // namespace satfr::analysis
