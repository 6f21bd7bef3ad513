#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

namespace perfbench {

namespace {

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool ParseU64(const char* text, std::uint64_t* out) {
  if (*text == '-' || *text == '\0') return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0') return false;
  *out = value;
  return true;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &args->seed)) {
        *error = "bad --seed";
        return false;
      }
    } else if (flag == "--seconds") {
      if (!ParseDouble(value, &args->seconds) || args->seconds <= 0.0) {
        *error = "bad --seconds";
        return false;
      }
    } else if (flag == "--trace") {
      const std::string t = value;
      if (t != "0" && t != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = t == "1";
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload) *error = "--workload is required";
  return have_workload;
}

double NowMs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double h = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (h - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

std::size_t Samples::Beyond(double p) const {
  if (values_.empty()) return 0;
  const double h = p / 100.0 * static_cast<double>(size() - 1);
  return size() - 1 - static_cast<std::size_t>(std::floor(h));
}

double Samples::TailMean(double p) const {
  const std::size_t n = Beyond(p);
  if (n == 0) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (std::size_t i = sorted.size() - n; i < sorted.size(); ++i) {
    sum += sorted[i];
  }
  return sum / static_cast<double>(n);
}

void PerQuery::Add(std::size_t query, double ms) {
  if (query >= by_query_.size()) by_query_.resize(query + 1);
  by_query_[query].Add(ms);
}

Samples PerQuery::Medians() const {
  Samples medians;
  for (const Samples& s : by_query_) {
    if (s.size() > 0) medians.Add(s.Percentile(50));
  }
  return medians;
}

double PerQuery::MedianPassSeconds() const { return Medians().Sum() / 1e3; }

void Outcome::Count(const std::string& error) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (failed <= 20) std::fprintf(stderr, "perfbench: FAILED: %s\n", error.c_str());
}

void Outcome::Add(std::string name, double value, std::string unit,
                  std::string note) {
  metrics.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(note)});
}

void AddEndToEnd(Outcome* out, const Samples& setup_s, const Passes& passes,
                 std::size_t queries_per_pass, double typical_pass_s,
                 const std::string& typical_note, const Samples& p50_ms,
                 const std::string& p50_note, const Samples& tail_ms,
                 const std::string& tail_note, double tail_pct) {
  char note[192];
  std::snprintf(note, sizeof(note), "median of %zu set-ups", setup_s.size());
  out->Add("setup_s", setup_s.Percentile(50), "s", note);
  std::snprintf(note, sizeof(note),
                "%zu checked queries a pass / %.3f s, %s over %zu passes",
                queries_per_pass, typical_pass_s, typical_note.c_str(),
                passes.seconds.size());
  out->Add("throughput_qps",
           static_cast<double>(queries_per_pass) / typical_pass_s, "1/s",
           note);
  std::snprintf(note, sizeof(note), "%s, n=%zu, %zu beyond",
                p50_note.c_str(), p50_ms.size(), p50_ms.Beyond(50));
  out->Add("latency_p50_ms", p50_ms.Percentile(50), "ms", note);
  const std::size_t beyond = tail_ms.Beyond(tail_pct);
  if (beyond < 10) {
    out->Count("latency tail p" + std::to_string(tail_pct) + " has only " +
               std::to_string(beyond) + " samples beyond it");
  }
  std::snprintf(note, sizeof(note),
                "mean beyond p%g (%.3f) of %s, n=%zu, %zu beyond", tail_pct,
                tail_ms.Percentile(tail_pct), tail_note.c_str(),
                tail_ms.size(), beyond);
  out->Add("latency_tail_ms", tail_ms.TailMean(tail_pct), "ms", note);
  std::snprintf(note, sizeof(note), "median of %zu passes' peaks%s",
                passes.peak_rss_mib.size(),
                passes.rss_reset ? "" : " (no reset: peak since start)");
  out->Add("peak_rss_mib", passes.peak_rss_mib.Percentile(50), "MiB", note);
  std::string line = "pass seconds:";
  for (const double s : passes.seconds.values()) {
    std::snprintf(note, sizeof(note), " %.3f", s);
    line += note;
  }
  out->notes.push_back(line);
}

Passes RunPasses(double seconds, int min_passes,
                 const std::function<double()>& pass) {
  Passes passes;
  while (true) {
    passes.rss_reset = ResetPeakRss() && passes.rss_reset;
    passes.seconds.Add(pass());
    passes.peak_rss_mib.Add(PeakRssMib());
    if (static_cast<int>(passes.seconds.size()) < min_passes) continue;
    if (seconds - passes.seconds.Sum() < 0.5 * passes.seconds.Mean()) break;
  }
  return passes;
}

std::string CheckColoring(const satfr::graph::Graph& g,
                          const std::vector<int>& tracks, int width) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (tracks.size() != n) {
    return "coloring has " + std::to_string(tracks.size()) +
           " entries for " + std::to_string(n) + " vertices";
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (tracks[v] < 0 || tracks[v] >= width) {
      return "vertex " + std::to_string(v) + " has track " +
             std::to_string(tracks[v]) + " outside [0," +
             std::to_string(width) + ")";
    }
    for (const satfr::graph::VertexId u :
         g.Neighbors(static_cast<satfr::graph::VertexId>(v))) {
      if (tracks[static_cast<std::size_t>(u)] == tracks[v]) {
        return "edge {" + std::to_string(v) + "," + std::to_string(u) +
               "} joins two nets on track " + std::to_string(tracks[v]);
      }
    }
  }
  return "";
}

void SatTotals::Add(const satfr::sat::SolverStats& s) {
  conflicts += s.conflicts;
  propagations += s.propagations;
  decisions += s.decisions;
  restarts += s.restarts;
  watch_inspections += s.watch_inspections;
  blocker_hits += s.blocker_hits;
}

void SatTotals::AddDelta(const satfr::sat::SolverStats& after,
                         const satfr::sat::SolverStats& before) {
  conflicts += after.conflicts - before.conflicts;
  propagations += after.propagations - before.propagations;
  decisions += after.decisions - before.decisions;
  restarts += after.restarts - before.restarts;
  watch_inspections += after.watch_inspections - before.watch_inspections;
  blocker_hits += after.blocker_hits - before.blocker_hits;
}

void SatTotals::AddSolve(satfr::sat::SolveResult status, double seconds) {
  if (status == satfr::sat::SolveResult::kSat) sat_ms.Add(seconds * 1e3);
  if (status == satfr::sat::SolveResult::kUnsat) unsat_ms.Add(seconds * 1e3);
}

void AddSatMetrics(Outcome* out, const SatTotals& sat, std::size_t calls) {
  const double n = calls > 0 ? static_cast<double>(calls) : 1.0;
  const double solve_s = (sat.sat_ms.Sum() + sat.unsat_ms.Sum()) / 1e3;
  out->Add("sat.solve_sat_ms", sat.sat_ms.Mean(), "ms",
           "mean, n=" + std::to_string(sat.sat_ms.size()));
  out->Add("sat.solve_unsat_ms", sat.unsat_ms.Mean(), "ms",
           "mean, n=" + std::to_string(sat.unsat_ms.size()));
  out->Add("sat.conflicts", static_cast<double>(sat.conflicts) / n, "count",
           "per solve");
  out->Add("sat.propagations", static_cast<double>(sat.propagations) / n,
           "count", "per solve");
  out->Add("sat.decisions", static_cast<double>(sat.decisions) / n, "count",
           "per solve");
  out->Add("sat.restarts", static_cast<double>(sat.restarts) / n, "count",
           "per solve");
  out->Add("sat.mprops_per_s",
           solve_s > 0.0 ? static_cast<double>(sat.propagations) / solve_s / 1e6
                         : 0.0,
           "Mprops/s");
  out->Add("sat.blocker_hit_ratio",
           sat.watch_inspections > 0
               ? static_cast<double>(sat.blocker_hits) /
                     static_cast<double>(sat.watch_inspections)
               : 0.0,
           "ratio");
}

int Tracer::Begin(std::string name, std::uint64_t query) {
  Span span;
  span.name = std::move(name);
  span.start_ms = NowMs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.query = query;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms = NowMs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Returned(std::string name, double start_ms, double duration_ms) {
  Span span;
  span.name = std::move(name);
  span.start_ms = start_ms;
  span.end_ms = start_ms + duration_ms;
  span.parent = open_.empty() ? -1 : open_.back();
  span.query = span.parent >= 0
                   ? spans_[static_cast<std::size_t>(span.parent)].query
                   : 0;
  span.returned = true;
  spans_.push_back(std::move(span));
}

double Tracer::TopLevelMs() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_ms - s.start_ms;
  }
  return total;
}

std::vector<std::pair<std::string, double>> Tracer::SelfMsByLayer() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[LayerOf(s.name)] +=
        std::max(0.0, s.end_ms - s.start_ms - child_ms[i]);
  }
  return {self.begin(), self.end()};
}

std::string Tracer::CoverageOf(const std::string& layer) const {
  bool measured = false;
  bool returned = false;
  for (const Span& s : spans_) {
    if (LayerOf(s.name) != layer) continue;
    (s.returned ? returned : measured) = true;
  }
  if (measured && returned) return "span+returned";
  if (measured) return "span";
  if (returned) return "returned";
  return "none";
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f, "
                 "\"parent\": %d, \"query\": %llu, \"source\": \"%s\"}%s\n",
                 s.name.c_str(), s.start_ms, s.end_ms, s.parent,
                 static_cast<unsigned long long>(s.query),
                 s.returned ? "returned" : "span",
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::uint64_t query)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->Begin(std::move(name), query);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->End(id_);
}

void AddTraceMetrics(Outcome* out, const Tracer& tracer, double traced_ms,
                     double untraced_ms, const std::string& trace_path) {
  static const char* const kLayers[] = {"netlist",  "route", "flow",
                                        "graph",    "symmetry", "encode",
                                        "sat",      "cube",  "service"};
  const std::vector<std::pair<std::string, double>> self =
      tracer.SelfMsByLayer();
  for (const char* layer : kLayers) {
    double ms = 0.0;
    for (const auto& [name, value] : self) {
      if (name == layer) ms = value;
    }
    out->Add(std::string(layer) + ".self_pct",
             traced_ms > 0.0 ? 100.0 * ms / traced_ms : 0.0, "%",
             "self " + std::to_string(ms) + " ms, coverage " +
                 tracer.CoverageOf(layer));
  }
  const double uncovered = traced_ms - tracer.TopLevelMs();
  out->Add("obs.uncovered_pct",
           traced_ms > 0.0 ? 100.0 * uncovered / traced_ms : 0.0, "%",
           "traced pass " + std::to_string(traced_ms) +
               " ms, top-level spans " + std::to_string(tracer.TopLevelMs()) +
               " ms");
  out->Add("obs.trace_overhead_pct",
           untraced_ms > 0.0 ? 100.0 * (traced_ms - untraced_ms) / untraced_ms
                             : 0.0,
           "%",
           "traced " + std::to_string(traced_ms) + " ms vs untraced " +
               std::to_string(untraced_ms) +
               " ms (mean of the passes before and after), same query list");
  if (!tracer.Write(trace_path)) {
    out->notes.push_back("could not write " + trace_path);
  }
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"netlist.generate_ms", "ms"},      {"route.global_ms", "ms"},
      {"route.two_pin_nets", "count"},    {"flow.conflict_graph_ms", "ms"},
      {"flow.conflict_edges", "count"},   {"graph.bounds_ms", "ms"},
      {"graph.bound_gap", "count"},       {"flow.widths_tested", "count"},
      {"symmetry.sequence_ms", "ms"},     {"encode.ms", "ms"},
      {"encode.clauses", "count"},        {"encode.literals", "count"},
      {"encode.clause_mib", "MiB"},       {"sat.solve_sat_ms", "ms"},
      {"sat.solve_unsat_ms", "ms"},       {"sat.conflicts", "count"},
      {"sat.propagations", "count"},      {"sat.decisions", "count"},
      {"sat.restarts", "count"},          {"sat.mprops_per_s", "Mprops/s"},
      {"sat.blocker_hit_ratio", "ratio"}, {"session.open_ms", "ms"},
      {"session.apply_us_p50", "us"},     {"session.apply_us_p99", "us"},
      {"session.solve_ms", "ms"},         {"session.delta_clauses", "count"},
      {"session.full_encodes", "count"},  {"service.queue_ms", "ms"},
      {"service.miss_encode_ms", "ms"},   {"service.miss_solve_ms", "ms"},
      {"service.hit_us", "us"},           {"service.verdict_hit_ratio", "ratio"},
      {"service.summary_hits", "count"},  {"service.instance_hits", "count"},
      {"service.steals", "count"},        {"service.batch_ms", "ms"},
      {"service.qps_full", "1/s"},        {"service.qps_no_instance_tier", "1/s"},
      {"service.qps_no_cache", "1/s"},    {"cube.cubes", "count"},
      {"cube.cubes_stolen", "count"},     {"cube.pruned", "count"},
      {"cube.worker_busy_ratio", "ratio"}, {"cube.exchange_imported", "count"},
      {"cube.mono_ms", "ms"},             {"cube.speedup_vs_mono", "ratio"},
      {"netlist.self_pct", "%"},          {"route.self_pct", "%"},
      {"flow.self_pct", "%"},             {"graph.self_pct", "%"},
      {"symmetry.self_pct", "%"},         {"encode.self_pct", "%"},
      {"sat.self_pct", "%"},              {"cube.self_pct", "%"},
      {"service.self_pct", "%"},          {"obs.uncovered_pct", "%"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kMetrics;
}

}  // namespace perfbench
