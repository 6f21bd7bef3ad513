// Pipeline benchmark entry point: runs one workload and prints its metrics.
//
//   perfbench --workload <paper_flow|session_churn|service_mix|cube_refute>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Human-readable report lines come first; the last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (a layer the workload never reaches reports 0).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {

std::string TimedCorpus(const std::vector<std::string>& bases,
                        const std::vector<std::string>& variant_classes,
                        int variants, std::uint64_t seed, int repeats,
                        Samples* setup_s, std::vector<Circuit>* out,
                        const std::function<std::string()>& after_build) {
  std::vector<satfr::netlist::McncParams> screened;
  if (variants > 0) {
    const std::string error =
        ScreenVariants(variant_classes, variants, seed, &screened);
    if (!error.empty()) return error;
  }
  for (int r = 0; r < repeats; ++r) {
    const double start = NowMs();
    std::string error = BuildCorpus(bases, screened, out);
    if (error.empty() && after_build) error = after_build();
    if (!error.empty()) return error;
    setup_s->Add((NowMs() - start) / 1e3);
  }
  return "";
}

std::string TracePath(const Args& args) {
  const char* dir = std::getenv("PERFBENCH_OUT");
  return std::string(dir != nullptr ? dir : ".") + "/trace-" + args.workload +
         "-seed" + std::to_string(args.seed) + ".json";
}

std::string VariantNote(const Samples& variant_ms) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "seeded-variant queries: n=%zu, p50 %.3f ms, max %.3f ms",
                variant_ms.size(), variant_ms.Percentile(50),
                variant_ms.Percentile(100));
  return line;
}

namespace {

const std::map<std::string, Outcome (*)(const Args&)>& Workloads() {
  static const std::map<std::string, Outcome (*)(const Args&)> kWorkloads = {
      {"paper_flow", RunPaperFlow},
      {"session_churn", RunSessionChurn},
      {"service_mix", RunServiceMix},
      {"cube_refute", RunCubeRefute},
  };
  return kWorkloads;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndUnits() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},          {"throughput_qps", "1/s"},
      {"latency_p50_ms", "ms"},  {"latency_tail_ms", "ms"},
      {"peak_rss_mib", "MiB"},
  };
  return kMetrics;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const auto it = Workloads().find(args.workload);
  if (it == Workloads().end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Outcome outcome = it->second(args);

  const auto& expected = args.trace ? PerLayerMetricUnits() : EndToEndUnits();
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : outcome.metrics) {
    bool known = false;
    for (const auto& [name, unit] : expected) {
      if (name == m.name && unit == m.unit) known = true;
    }
    if (!known || by_name.count(m.name) != 0 || !std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: bad metric %s (%s)\n", m.name.c_str(),
                   m.unit.c_str());
      return 3;
    }
    by_name[m.name] = &m;
  }
  if (!args.trace && by_name.size() != expected.size()) {
    std::fprintf(stderr, "perfbench: %s reported %zu of %zu metrics\n",
                 args.workload.c_str(), by_name.size(), expected.size());
    if (outcome.failed == 0) return 3;
  }

  std::printf("workload %s  seed %llu  trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  for (const std::string& line : outcome.notes) {
    std::printf("  %s\n", line.c_str());
  }
  std::string json = "{";
  bool first = true;
  for (const auto& [name, unit] : expected) {
    const auto found = by_name.find(name);
    const double value = found != by_name.end() ? found->second->value : 0.0;
    const std::string note =
        found != by_name.end() ? found->second->note : "not reached";
    std::printf("  %-28s %14.6g %-9s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), value, unit.c_str());
    json += entry;
    first = false;
  }
  json += "}";
  std::printf("  queries attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      outcome.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(
          outcome.attempted, 1)),
      static_cast<unsigned long long>(outcome.failed), json.c_str());
  return 0;
}
