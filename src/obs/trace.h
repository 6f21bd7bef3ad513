// Span tracer emitting Chrome trace_event JSON, loadable in Perfetto or
// chrome://tracing.
//
// Events are the "complete" (ph "X"), "instant" (ph "i") and thread-name
// metadata (ph "M") flavors of the trace_event format: each carries a name,
// a category, a pid/tid pair, and microsecond timestamps relative to the
// writer's construction (steady clock — wall-clock skew cannot fold spans
// over each other). Cube workers and portfolio strategies run on their own
// tid tracks, named via SetThreadName, so the Perfetto timeline shows one
// swimlane per worker.
//
// Event frequency is coarse by design — per route stage, per restart window,
// per cube — so a single mutex-protected buffer is the right tradeoff, as
// it is for MetricsRegistry. Disabled tracing costs one null check: every
// emission site goes through a nullable TraceWriter* (see GlobalTrace) and
// the RAII TraceSpan no-ops on null.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mc/annotations.h"
#include "mc/shim.h"
#include "common/stopwatch.h"
#include "obs/json.h"

namespace satfr::obs {

/// Argument list attached to an event ("args" in the trace format).
using TraceArgs = std::vector<std::pair<std::string, JsonValue>>;

class TraceWriter {
 public:
  TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Microseconds since this writer was constructed (steady clock).
  std::uint64_t NowMicros() const;

  /// A small stable integer id for the calling thread (assigned on first
  /// use, cached thread_local). Chrome traces key tracks by integer tid.
  static std::uint64_t CurrentTid();

  /// Records a completed span [start_us, start_us + dur_us] on `tid`.
  void CompleteEvent(std::string name, std::string category,
                     std::uint64_t tid, std::uint64_t start_us,
                     std::uint64_t dur_us, TraceArgs args = {});

  /// Records an instant (zero-duration, thread-scoped) event at `ts_us`.
  void InstantEvent(std::string name, std::string category,
                    std::uint64_t tid, std::uint64_t ts_us,
                    TraceArgs args = {});

  /// Names a tid's track in the trace UI.
  void SetThreadName(std::uint64_t tid, std::string name);

  /// The whole trace as a {"traceEvents": [...]} JSON document.
  JsonValue ToJson() const;

  /// Writes the trace document to `path`. Returns false + `error` on I/O
  /// failure.
  bool WriteFile(const std::string& path, std::string* error) const;

  std::size_t event_count() const;

 private:
  struct Event {
    char phase;  // 'X', 'i', 'M'
    std::string name;
    std::string category;
    std::uint64_t tid = 0;
    std::uint64_t ts_us = 0;
    std::uint64_t dur_us = 0;
    TraceArgs args;
  };

  mutable mc::Mutex mutex_;
  Stopwatch epoch_;
  std::vector<Event> events_ SATFR_GUARDED_BY(mutex_);
};

/// RAII complete-event span. Null writer => every operation is a no-op, so
/// call sites stay unconditional:
///
///   obs::TraceSpan span(obs::GlobalTrace(), "encode", "flow");
///   ...
///   span.AddArg("clauses", n);   // fine even when tracing is off
class TraceSpan {
 public:
  TraceSpan(TraceWriter* writer, std::string name, std::string category)
      : writer_(writer) {
    if (writer_ == nullptr) return;
    name_ = std::move(name);
    category_ = std::move(category);
    tid_ = TraceWriter::CurrentTid();
    start_us_ = writer_->NowMicros();
  }

  /// Pins the span to an explicit tid track (cube workers trace onto their
  /// logical worker track, not the OS thread that happened to run them).
  TraceSpan(TraceWriter* writer, std::string name, std::string category,
            std::uint64_t tid)
      : TraceSpan(writer, std::move(name), std::move(category)) {
    tid_ = tid;
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void AddArg(std::string key, JsonValue value) {
    if (writer_ == nullptr) return;
    args_.emplace_back(std::move(key), std::move(value));
  }

  /// Ends the span now (idempotent; the destructor calls it).
  void End() {
    if (writer_ == nullptr) return;
    const std::uint64_t end_us = writer_->NowMicros();
    writer_->CompleteEvent(std::move(name_), std::move(category_), tid_,
                           start_us_, end_us - start_us_, std::move(args_));
    writer_ = nullptr;
  }

  ~TraceSpan() { End(); }

 private:
  TraceWriter* writer_;
  std::string name_;
  std::string category_;
  std::uint64_t tid_ = 0;
  std::uint64_t start_us_ = 0;
  TraceArgs args_;
};

/// Process-wide trace sink; nullptr (the default) means tracing is off.
/// Emission sites pass GlobalTrace() straight into TraceSpan / guard on it
/// for manual events. The CLI installs a writer when `--trace-out` is set.
TraceWriter* GlobalTrace();
void SetGlobalTrace(TraceWriter* writer);

}  // namespace satfr::obs
