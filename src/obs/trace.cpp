#include "obs/trace.h"

#include <atomic>
#include <fstream>

namespace satfr::obs {

TraceWriter::TraceWriter() = default;

std::uint64_t TraceWriter::NowMicros() const {
  return static_cast<std::uint64_t>(epoch_.Seconds() * 1e6);
}

std::uint64_t TraceWriter::CurrentTid() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void TraceWriter::CompleteEvent(std::string name, std::string category,
                                std::uint64_t tid, std::uint64_t start_us,
                                std::uint64_t dur_us, TraceArgs args) {
  Event e;
  e.phase = 'X';
  e.name = std::move(name);
  e.category = std::move(category);
  e.tid = tid;
  e.ts_us = start_us;
  e.dur_us = dur_us;
  e.args = std::move(args);
  mc::MutexLock lock(mutex_);
  events_.push_back(std::move(e));
}

void TraceWriter::InstantEvent(std::string name, std::string category,
                               std::uint64_t tid, std::uint64_t ts_us,
                               TraceArgs args) {
  Event e;
  e.phase = 'i';
  e.name = std::move(name);
  e.category = std::move(category);
  e.tid = tid;
  e.ts_us = ts_us;
  e.args = std::move(args);
  mc::MutexLock lock(mutex_);
  events_.push_back(std::move(e));
}

void TraceWriter::SetThreadName(std::uint64_t tid, std::string name) {
  Event e;
  e.phase = 'M';
  e.name = std::move(name);
  e.tid = tid;
  mc::MutexLock lock(mutex_);
  events_.push_back(std::move(e));
}

std::size_t TraceWriter::event_count() const {
  mc::MutexLock lock(mutex_);
  return events_.size();
}

JsonValue TraceWriter::ToJson() const {
  mc::MutexLock lock(mutex_);
  JsonArray events;
  events.reserve(events_.size());
  for (const Event& e : events_) {
    JsonObject obj;
    if (e.phase == 'M') {
      obj.emplace_back("name", JsonValue("thread_name"));
      obj.emplace_back("ph", JsonValue("M"));
      obj.emplace_back("pid", JsonValue(1));
      obj.emplace_back("tid", JsonValue(e.tid));
      JsonObject args;
      args.emplace_back("name", JsonValue(e.name));
      obj.emplace_back("args", JsonValue(std::move(args)));
      events.emplace_back(std::move(obj));
      continue;
    }
    obj.emplace_back("name", JsonValue(e.name));
    obj.emplace_back("cat", JsonValue(e.category));
    obj.emplace_back("ph", JsonValue(std::string(1, e.phase)));
    obj.emplace_back("pid", JsonValue(1));
    obj.emplace_back("tid", JsonValue(e.tid));
    obj.emplace_back("ts", JsonValue(e.ts_us));
    if (e.phase == 'X') obj.emplace_back("dur", JsonValue(e.dur_us));
    if (e.phase == 'i') obj.emplace_back("s", JsonValue("t"));
    if (!e.args.empty()) {
      JsonObject args;
      for (const auto& [k, v] : e.args) args.emplace_back(k, v);
      obj.emplace_back("args", JsonValue(std::move(args)));
    }
    events.emplace_back(std::move(obj));
  }
  JsonObject doc;
  doc.emplace_back("traceEvents", JsonValue(std::move(events)));
  doc.emplace_back("displayTimeUnit", JsonValue("ms"));
  return JsonValue(std::move(doc));
}

bool TraceWriter::WriteFile(const std::string& path,
                            std::string* error) const {
  return WriteJsonFile(path, ToJson(), error);
}

namespace {
std::atomic<TraceWriter*> g_trace{nullptr};
}  // namespace

TraceWriter* GlobalTrace() {
  return g_trace.load(std::memory_order_acquire);
}

void SetGlobalTrace(TraceWriter* writer) {
  g_trace.store(writer, std::memory_order_release);
}

}  // namespace satfr::obs
