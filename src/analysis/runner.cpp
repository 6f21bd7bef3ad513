#include "analysis/runner.h"

#include <algorithm>

#include "analysis/cnf_passes.h"
#include "analysis/cube_passes.h"
#include "analysis/encoding_passes.h"
#include "analysis/graph_passes.h"
#include "analysis/netgroup_passes.h"
#include "analysis/service_passes.h"
#include "analysis/solver_passes.h"
#include "analysis/telemetry_passes.h"

namespace satfr::analysis {

const char* ToString(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

void DiagnosticSink::ReportAt(Severity severity, std::string location,
                              std::string message) {
  ++num_reported_;
  if (num_reported_ > kMaxStoredPerPass) {
    ++num_suppressed_;
    return;
  }
  Diagnostic d;
  d.severity = forced_severity_ ? severity_ : severity;
  d.pass = pass_;
  d.location = std::move(location);
  d.message = std::move(message);
  out_->push_back(std::move(d));
}

std::size_t AnalysisReport::Count(Severity severity) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [severity](const Diagnostic& d) {
                      return d.severity == severity;
                    }));
}

void AnalysisRunner::AddPass(std::unique_ptr<AnalysisPass> pass) {
  passes_.push_back(std::move(pass));
  configs_.emplace_back();
}

bool AnalysisRunner::Configure(std::string_view pass_name,
                               const PassConfig& config) {
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    if (passes_[i]->name() == pass_name) {
      configs_[i] = config;
      return true;
    }
  }
  return false;
}

AnalysisReport AnalysisRunner::Run(const AnalysisInput& input) const {
  AnalysisReport report;
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    const AnalysisPass& pass = *passes_[i];
    const PassConfig& config = configs_[i];
    PassOutcome outcome;
    outcome.pass = std::string(pass.name());
    if (config.enabled && pass.Applicable(input)) {
      const Severity severity =
          config.severity.value_or(pass.default_severity());
      DiagnosticSink sink(outcome.pass, severity, config.severity.has_value(),
                          &report.diagnostics);
      pass.Run(input, sink);
      outcome.ran = true;
      outcome.findings = sink.num_reported();
      if (sink.num_suppressed() > 0) {
        report.diagnostics.push_back(
            {severity, outcome.pass, "summary",
             std::to_string(sink.num_suppressed()) +
                 " further finding(s) suppressed (storage bound " +
                 std::to_string(DiagnosticSink::kMaxStoredPerPass) + ")"});
      }
    }
    report.outcomes.push_back(std::move(outcome));
  }
  return report;
}

AnalysisRunner MakeDefaultRunner() {
  AnalysisRunner runner;
  AddCnfPasses(runner);
  AddEncodingPasses(runner);
  AddNetGroupPasses(runner);
  AddGraphPasses(runner);
  AddSolverPasses(runner);
  AddCubePasses(runner);
  AddTelemetryPasses(runner);
  AddServicePasses(runner);
  return runner;
}

std::string FormatText(const AnalysisReport& report) {
  std::string out;
  for (const Diagnostic& d : report.diagnostics) {
    out += std::string(ToString(d.severity)) + " [" + d.pass + "] " +
           d.location + ": " + d.message + "\n";
  }
  std::size_t ran = 0;
  for (const PassOutcome& o : report.outcomes) ran += o.ran ? 1 : 0;
  out += std::to_string(ran) + "/" + std::to_string(report.outcomes.size()) +
         " passes ran: " + std::to_string(report.Count(Severity::kError)) +
         " error(s), " + std::to_string(report.Count(Severity::kWarning)) +
         " warning(s), " + std::to_string(report.Count(Severity::kInfo)) +
         " info(s)\n";
  return out;
}

namespace {

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatJson(const AnalysisReport& report) {
  std::string out = "{\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"severity\": \"" + std::string(ToString(d.severity)) +
           "\", \"pass\": \"" + JsonEscape(d.pass) + "\", \"location\": \"" +
           JsonEscape(d.location) + "\", \"message\": \"" +
           JsonEscape(d.message) + "\"}";
  }
  out += report.diagnostics.empty() ? "],\n" : "\n  ],\n";
  out += "  \"passes\": [";
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const PassOutcome& o = report.outcomes[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"pass\": \"" + JsonEscape(o.pass) + "\", \"ran\": " +
           (o.ran ? "true" : "false") +
           ", \"findings\": " + std::to_string(o.findings) + "}";
  }
  out += report.outcomes.empty() ? "],\n" : "\n  ],\n";
  out += "  \"errors\": " + std::to_string(report.Count(Severity::kError)) +
         ",\n  \"warnings\": " +
         std::to_string(report.Count(Severity::kWarning)) +
         ",\n  \"infos\": " + std::to_string(report.Count(Severity::kInfo)) +
         "\n}\n";
  return out;
}

}  // namespace satfr::analysis
