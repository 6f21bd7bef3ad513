#include "analysis/source_passes.h"

#include <array>
#include <memory>
#include <string>
#include <string_view>

#include "analysis/pass.h"

namespace satfr::analysis {

namespace {

// A file is in the model-checked scope when its path lands in one of the
// lock-free directories. Paths are matched as substrings so absolute and
// repo-relative invocations both work; src/mc itself is exempt (the shim
// is the one place allowed to name std::atomic).
bool InModelCheckedScope(const std::string& path) {
  if (path.find("src/mc/") != std::string::npos) return false;
  return path.find("src/cube/") != std::string::npos ||
         path.find("src/obs/") != std::string::npos;
}

// Raw primitives the shim replaces. `std::memory_order*` is deliberately
// absent: the shim's API takes the standard orders, so naming them is how
// call sites document themselves.
constexpr std::array<std::string_view, 8> kForbidden = {
    "std::atomic<",          "std::atomic_flag",
    "std::atomic_thread_fence", "std::atomic_signal_fence",
    "std::mutex",            "std::lock_guard",
    "std::unique_lock",      "std::scoped_lock",
};

std::string_view ShimReplacement(std::string_view token) {
  if (token.substr(0, 11) == "std::atomic") {
    return token.find("fence") != std::string_view::npos ? "mc::Fence"
                                                         : "mc::Atomic";
  }
  if (token == "std::mutex") return "mc::Mutex";
  return "mc::MutexLock";
}

// Scans the model-checked directories for concurrency primitives that
// bypass the mc:: shim. Comment text is ignored (the memory_order
// justification comments legitimately discuss the raw primitives).
class McCoveragePass : public AnalysisPass {
 public:
  std::string_view name() const override { return "mc-coverage"; }
  std::string_view description() const override {
    return "lock-free layers route atomics/mutexes through the mc:: shim";
  }

  bool Applicable(const AnalysisInput& input) const override {
    return input.sources != nullptr;
  }

  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    for (const SourceFile& file : *input.sources) {
      if (!InModelCheckedScope(file.path)) continue;
      ScanFile(file, sink);
    }
  }

 private:
  static void ScanFile(const SourceFile& file, DiagnosticSink& sink) {
    std::size_t line_no = 0;
    bool in_block_comment = false;
    std::string_view rest = file.content;
    while (!rest.empty()) {
      ++line_no;
      const std::size_t nl = rest.find('\n');
      std::string_view line = rest.substr(0, nl);
      rest = nl == std::string_view::npos ? std::string_view()
                                          : rest.substr(nl + 1);
      const std::string code = StripComments(line, &in_block_comment);
      // Includes are allowed: the shim's passthrough mode and the
      // memory_order constants live in <atomic>/<mutex>.
      if (code.find("#include") != std::string::npos) continue;
      for (const std::string_view token : kForbidden) {
        if (code.find(token) == std::string::npos) continue;
        sink.Report(file.path + ":" + std::to_string(line_no),
                    "raw " + std::string(token.back() == '<'
                                             ? token.substr(0, token.size() - 1)
                                             : token) +
                        " bypasses the model-check shim; use " +
                        std::string(ShimReplacement(token)) +
                        " (src/mc/shim.h)");
        break;  // one diagnostic per line is enough
      }
    }
  }

  // Removes // and /* */ comment text (tracking block comments across
  // lines). String literals are not parsed — a primitive named inside one
  // would flag, which is acceptable for a lint over our own sources.
  static std::string StripComments(std::string_view line, bool* in_block) {
    std::string out;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (*in_block) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          *in_block = false;
          ++i;
        }
        continue;
      }
      if (line[i] == '/' && i + 1 < line.size()) {
        if (line[i + 1] == '/') break;
        if (line[i + 1] == '*') {
          *in_block = true;
          ++i;
          continue;
        }
      }
      out.push_back(line[i]);
    }
    return out;
  }
};

}  // namespace

void AddSourcePasses(AnalysisRunner& runner) {
  runner.AddPass(std::make_unique<McCoveragePass>());
}

}  // namespace satfr::analysis
