// The four workloads. Each builds its inputs from args.seed, measures its
// timed passes for about args.seconds, checks every answer, and returns
// either the end-to-end metrics (untraced run) or the per-layer metrics
// (args.trace: one untraced and one traced pass of the same query list,
// plus the workload's ablation arms).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "corpus.h"
#include "harness.h"

namespace perfbench {

Outcome RunPaperFlow(const Args& args);
Outcome RunSessionChurn(const Args& args);
Outcome RunServiceMix(const Args& args);
Outcome RunCubeRefute(const Args& args);

/// Set-up repetitions whose median is setup_s (1 in a traced run, which
/// reports no end-to-end metrics).
inline int SetupRepeats(const Args& args) { return args.trace ? 1 : 3; }

/// Screens the seeded variants once, untimed, then builds the corpus
/// `repeats` times, timing each build, and the workload's own `after_build`
/// step when given, into `setup_s`. Returns "" on success; the last build
/// is left in `out`.
std::string TimedCorpus(const std::vector<std::string>& bases,
                        const std::vector<std::string>& variant_classes,
                        int variants, std::uint64_t seed, int repeats,
                        Samples* setup_s, std::vector<Circuit>* out,
                        const std::function<std::string()>& after_build = {});

/// Where a traced run writes its spans: $PERFBENCH_OUT (set by run.py to a
/// directory under the build tree) or the working directory.
std::string TracePath(const Args& args);

/// Report line for the variant queries' latencies (not in the percentiles).
std::string VariantNote(const Samples& variant_ms);

/// Query id of item `index` of pass `pass`, shared by spans and logs.
inline std::uint64_t QueryId(int pass, std::size_t index) {
  return static_cast<std::uint64_t>(pass) * 1000000u + index;
}

}  // namespace perfbench
