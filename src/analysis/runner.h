// AnalysisRunner: the satlint pass pipeline.
//
// Owns an ordered list of passes, runs every enabled + applicable one over
// an AnalysisInput, and collects the findings into an AnalysisReport. Each
// pass can be disabled or have its severity overridden by name, so callers
// (the satlint CLI, `satfr serve --selfcheck`, tests) tune the same
// pipeline instead of assembling their own.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/pass.h"

namespace satfr::analysis {

struct PassConfig {
  bool enabled = true;
  /// Forces every finding of the pass to this severity.
  std::optional<Severity> severity;
};

/// Per-pass outcome: whether it ran (inputs present + enabled) and how many
/// findings it reported (including ones beyond the storage bound).
struct PassOutcome {
  std::string pass;
  bool ran = false;
  std::size_t findings = 0;
};

struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;
  std::vector<PassOutcome> outcomes;

  /// Number of stored diagnostics at exactly `severity`.
  std::size_t Count(Severity severity) const;
  bool HasErrors() const { return Count(Severity::kError) > 0; }
};

class AnalysisRunner {
 public:
  AnalysisRunner() = default;
  AnalysisRunner(AnalysisRunner&&) = default;
  AnalysisRunner& operator=(AnalysisRunner&&) = default;

  void AddPass(std::unique_ptr<AnalysisPass> pass);

  /// Applies `config` to the pass named `pass_name`; false if unknown.
  bool Configure(std::string_view pass_name, const PassConfig& config);

  const std::vector<std::unique_ptr<AnalysisPass>>& passes() const {
    return passes_;
  }

  AnalysisReport Run(const AnalysisInput& input) const;

 private:
  std::vector<std::unique_ptr<AnalysisPass>> passes_;
  std::vector<PassConfig> configs_;
};

/// A runner with every built-in pass registered, in layer order: CNF
/// well-formedness, encoding contracts, graph/flow consistency.
AnalysisRunner MakeDefaultRunner();

/// Multi-line human-readable report (one diagnostic per line + summary).
std::string FormatText(const AnalysisReport& report);

/// Machine-readable report: {"diagnostics": [...], "passes": [...],
/// "errors": N, "warnings": N, "infos": N}.
std::string FormatJson(const AnalysisReport& report);

}  // namespace satfr::analysis
