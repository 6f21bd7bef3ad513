// Shared pieces of the pipeline benchmark: command line, raw-sample
// percentiles, the in-memory span recorder, metric collection and the
// coloring check every SAT answer goes through.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "sat/solver.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1`. False (with
/// *error) on a missing or malformed argument.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error);

/// Milliseconds on the steady clock since the process started measuring.
double NowMs();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMib();

/// Restarts the peak PeakRssMib reports at the current resident set
/// (Linux: /proc/self/clear_refs). False where that is not possible; the
/// peak then keeps counting from the start of the process.
bool ResetPeakRss();

/// Raw per-query samples. Percentiles interpolate linearly between the two
/// closest ranks of the sorted raw values (numpy's default), never read off
/// a histogram: when a pass repeats one query list, nearest-rank would jump
/// between two queries' samples at a group boundary.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  double Sum() const;
  double Mean() const;
  /// Percentile p in [0, 100].
  double Percentile(double p) const;
  /// Samples ranked strictly above the interpolation point of p.
  std::size_t Beyond(double p) const;
  /// Mean of the Beyond(p) largest samples: the tail's average, which
  /// moves with every sample in it rather than with the one or two ranks a
  /// percentile interpolates between.
  double TailMean(double p) const;

 private:
  std::vector<double> values_;
};

/// Latencies of passes that replay one fixed query list: query i's sample
/// from every pass.
class PerQuery {
 public:
  void Add(std::size_t query, double ms);
  /// Each query's median across passes (queries never added are skipped).
  Samples Medians() const;
  /// Sum of the per-query medians, in seconds: one pass with every query at
  /// its typical speed, so a burst of machine load that slows some queries
  /// of one pass does not move it.
  double MedianPassSeconds() const;

 private:
  std::vector<Samples> by_query_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed in the human-readable report only
};

/// What one workload run hands back to main: the answer-check tally and the
/// metrics of the requested mode (end-to-end or per-layer).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // extra report lines

  /// Counts one checked query; `error` empty means its answer was right.
  void Count(const std::string& error);
  void Add(std::string name, double value, std::string unit,
           std::string note = "");
};

/// What RunPasses measured: each timed pass's seconds and the peak resident
/// set reached during it.
struct Passes {
  Samples seconds;
  Samples peak_rss_mib;
  bool rss_reset = true;  // false: each peak counts from process start
};

/// Runs `pass` (which returns its own timed seconds) at least `min_passes`
/// times, then keeps going while the measured total is more than half a
/// pass short of `seconds`. The peak resident set is restarted before each
/// pass, so set-up and the heap left by earlier passes do not count.
Passes RunPasses(double seconds, int min_passes,
                 const std::function<double()>& pass);

/// Appends the end-to-end metrics every workload reports: `setup_s` as the
/// median set-up; `throughput_qps` as `queries_per_pass` over
/// `typical_pass_s`, a typical pass of `passes` (`typical_note` says how it
/// was formed); `latency_p50_ms` as the median of `p50_ms` and
/// `latency_tail_ms` as the mean of the `tail_ms` samples beyond the
/// workload's fixed tail percentile `tail_pct`, both over the queries on the
/// eight Table-2 circuits only, the same for every seed (seeded variants
/// enter throughput and the answer checks); and `peak_rss_mib` as the
/// median of the passes' peaks. The tail is reported only when at least ten
/// samples lie beyond it (otherwise the run counts one failure, because the
/// workload was sized to guarantee it).
void AddEndToEnd(Outcome* out, const Samples& setup_s, const Passes& passes,
                 std::size_t queries_per_pass, double typical_pass_s,
                 const std::string& typical_note, const Samples& p50_ms,
                 const std::string& p50_note, const Samples& tail_ms,
                 const std::string& tail_note, double tail_pct);

/// The benchmark's own coloring check: every vertex has a track in
/// [0, width) and no edge joins two equal tracks. Returns "" when proper.
std::string CheckColoring(const satfr::graph::Graph& g,
                          const std::vector<int>& tracks, int width);

/// Sum of the solver counters the per-layer report uses.
struct SatTotals {
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t decisions = 0;
  std::uint64_t restarts = 0;
  std::uint64_t watch_inspections = 0;
  std::uint64_t blocker_hits = 0;
  Samples sat_ms;
  Samples unsat_ms;
  void Add(const satfr::sat::SolverStats& stats);
  /// Counter delta between two snapshots of one resident solver.
  void AddDelta(const satfr::sat::SolverStats& after,
                const satfr::sat::SolverStats& before);
  void AddSolve(satfr::sat::SolveResult status, double seconds);
};

/// Appends the sat.* per-layer metrics; `calls` normalizes the counters to
/// per-solve means.
void AddSatMetrics(Outcome* out, const SatTotals& sat, std::size_t calls);

/// In-memory span recorder for the traced run. Spans are opened and closed
/// on one thread in stack order; a span's parent is the innermost open span.
/// Untraced passes hand a null Tracer* to the same code.
class Tracer {
 public:
  struct Span {
    std::string name;  // "<layer>.<what>"
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    std::uint64_t query = 0;
    // True when the duration came from a timing the library call returned
    // rather than from a span the benchmark measured around a call.
    bool returned = false;
  };

  int Begin(std::string name, std::uint64_t query);
  void End(int id);
  /// A child of the innermost open span, laid out from a returned timing.
  void Returned(std::string name, double start_ms, double duration_ms);

  /// Sum of top-level span durations.
  double TopLevelMs() const;
  /// Self time (duration minus child coverage) summed per layer.
  std::vector<std::pair<std::string, double>> SelfMsByLayer() const;
  /// Per layer: "span", "returned" or "span+returned".
  std::string CoverageOf(const std::string& layer) const;
  /// Writes every span as JSON; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t query);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

/// Appends the per-layer attribution metrics of a traced pass: each of the
/// nine modules' self-time share, the uncovered remainder and the tracing
/// overhead against `untraced_ms`, the mean of untraced passes of the same
/// query list run before and after the traced one. Then writes the spans to
/// `trace_path` (a report line says so if that fails).
void AddTraceMetrics(Outcome* out, const Tracer& tracer, double traced_ms,
                     double untraced_ms, const std::string& trace_path);

/// Names of the per-layer metrics, in report order. main fills any a
/// workload does not reach with 0, so every traced run reports all of them.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricUnits();

}  // namespace perfbench
