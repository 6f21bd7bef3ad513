// Structured run reports: one JSONL record per solve.
//
// Every solve path — `flow::RouteDetailedOnGraph`, both min-width sweeps,
// the portfolio runner, the cube pool — appends a RunRecord to the writer
// installed via SetGlobalReport (the CLI's `--report FILE`). A record
// carries the verdict, stage timings, the solver-window stats (propagations
// / conflicts / restarts / learned over exactly the window this record
// covers), learnt-DB tier sizes, the LBD histogram, peak clause memory, and
// cube counters where applicable.
//
// Records additionally carry an `observed` block when a SolverTelemetryObserver
// was attached: counter totals accumulated restart-by-restart through the
// observer hook. The satlint `telemetry-consistency` pass cross-checks the
// observed totals against the solver-window stats — the two are computed by
// independent mechanisms over the same window, so drift means the observer
// hook (or a stats field) broke.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "mc/annotations.h"
#include "mc/shim.h"
#include "obs/json.h"
#include "sat/solver.h"

namespace satfr::obs {

struct RunRecord {
  // ---- context ----
  std::string instance;   // run label: MCNC circuit, .col file, "cnf", ...
  std::string phase;      // "route", "min_width", "incremental",
                          // "portfolio", "session"
  std::string encoding;
  std::string symmetry;
  int width = 0;
  int cube_workers = 0;

  // ---- outcome ----
  std::string verdict;  // "SAT" / "UNSAT" / "UNKNOWN"

  // ---- stage timings (seconds) ----
  double coloring_seconds = 0.0;
  double encode_seconds = 0.0;
  double solve_seconds = 0.0;
  double total_seconds = 0.0;

  // ---- formula shape ----
  std::uint64_t cnf_vars = 0;
  std::uint64_t cnf_clauses = 0;

  // ---- solver window (deltas covering exactly this record's solve) ----
  std::uint64_t propagations = 0;
  std::uint64_t binary_propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned = 0;
  std::uint64_t removed = 0;

  // ---- learnt database at end of window ----
  std::uint64_t learnts_core = 0;
  std::uint64_t learnts_tier2 = 0;
  std::uint64_t learnts_local = 0;
  std::vector<std::uint64_t> lbd_histogram;  // bucket i = learnts with LBD i
                                             // (last bucket clamps)
  std::uint64_t peak_clause_memory_bytes = 0;

  // ---- incremental session (zero unless phase == "session") ----
  // Rip-up/re-route deltas absorbed and net groups retired since the
  // previous record of the same session; the emission time of those deltas
  // is reported as encode_seconds (the session never re-encodes).
  std::uint64_t deltas_applied = 0;
  std::uint64_t groups_retired = 0;

  // ---- cube (zero unless the cube pool ran) ----
  std::uint64_t cubes = 0;
  std::uint64_t cubes_stolen = 0;

  // ---- observer cross-check (present iff an observer was attached) ----
  bool has_observed = false;
  std::uint64_t observed_propagations = 0;
  std::uint64_t observed_conflicts = 0;
  std::uint64_t observed_restarts = 0;
  std::uint64_t observed_learned = 0;
  double observed_bcp_seconds = 0.0;
  double observed_analyze_seconds = 0.0;
  double observed_inprocess_seconds = 0.0;

  /// Fills the solver-window block from a stats delta (see
  /// sat::SolverStats::Since) and the LBD histogram carried on it.
  void SetSolverWindow(const sat::SolverStats& window);

  JsonValue ToJson() const;

  /// Parses a record previously produced by ToJson. Unknown keys are
  /// ignored (forward compatibility); missing keys keep their defaults.
  /// Returns false + `error` when `value` is not an object.
  static bool FromJson(const JsonValue& value, RunRecord* record,
                       std::string* error);
};

/// Thread-safe JSONL sink: one compact JSON object per line per Append.
class RunReportWriter {
 public:
  /// Opens `path` for writing (truncates). Check ok() before relying on it;
  /// Append on a failed writer is a no-op.
  explicit RunReportWriter(const std::string& path);

  bool ok() const { return ok_; }
  const std::string& path() const { return path_; }

  void Append(const RunRecord& record);

  std::size_t records_written() const;

 private:
  std::string path_;
  bool ok_ = false;
  mutable mc::Mutex mutex_;
  std::ofstream out_ SATFR_GUARDED_BY(mutex_);
  std::size_t records_ SATFR_GUARDED_BY(mutex_) = 0;
};

/// Loads a JSONL run report. Returns false + `error` on the first
/// unreadable line.
bool LoadRunReport(const std::string& path, std::vector<RunRecord>* records,
                   std::string* error);

/// Process-wide report sink; nullptr (the default) means reporting is off.
RunReportWriter* GlobalReport();
void SetGlobalReport(RunReportWriter* writer);

}  // namespace satfr::obs
