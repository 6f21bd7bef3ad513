#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "mc/shim.h"

namespace satfr {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kWarning)};
mc::Mutex g_write_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kSilent:
      return "SILENT";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(static_cast<int>(level)); }

LogLevel GetLogLevel() { return static_cast<LogLevel>(g_level.load()); }

namespace internal {

void LogLine(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < g_level.load(std::memory_order_relaxed)) {
    return;
  }
  mc::MutexLock lock(g_write_mutex);
  std::fprintf(stderr, "[satfr %s] %s\n", LevelName(level), message.c_str());
}

}  // namespace internal
}  // namespace satfr
