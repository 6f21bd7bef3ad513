// Telemetry-layer tests: the JSON model, the metrics registry's bucket
// math and cross-thread merge, trace well-formedness (the emitted file must
// re-parse and carry the trace_event keys Perfetto requires), run-record
// round-tripping, byte-stable `--report` output modulo timing fields, and
// the satlint telemetry-consistency pass on a real solve.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/runner.h"
#include "flow/detailed_router.h"
#include "flow/routing_session.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/solver_trace.h"
#include "obs/trace.h"
#include "sat/solver.h"
#include "test_util.h"

namespace satfr::obs {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------- JSON --

TEST(JsonTest, RoundTripsStructure) {
  JsonObject object;
  object.emplace_back("s", JsonValue("a \"quoted\"\nline"));
  object.emplace_back("i", JsonValue(std::int64_t{-42}));
  object.emplace_back("u", JsonValue(std::uint64_t{1} << 40));
  object.emplace_back("d", JsonValue(0.5));
  object.emplace_back("b", JsonValue(true));
  object.emplace_back("n", JsonValue(nullptr));
  object.emplace_back("a", JsonValue(JsonArray{JsonValue(1), JsonValue(2)}));
  const JsonValue original{std::move(object)};

  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(ParseJson(original.Dump(), &parsed, &error)) << error;
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.Find("s")->AsString(), "a \"quoted\"\nline");
  EXPECT_EQ(parsed.Find("i")->AsInt(), -42);
  EXPECT_EQ(parsed.Find("u")->AsUint(), std::uint64_t{1} << 40);
  EXPECT_DOUBLE_EQ(parsed.Find("d")->AsDouble(), 0.5);
  EXPECT_TRUE(parsed.Find("b")->AsBool());
  EXPECT_TRUE(parsed.Find("n")->is_null());
  ASSERT_EQ(parsed.Find("a")->AsArray().size(), 2u);
  // Dump of the reparse matches the original dump (ordered objects).
  EXPECT_EQ(parsed.Dump(), original.Dump());
}

TEST(JsonTest, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(JsonValue(std::uint64_t{12345}).Dump(), "12345");
  EXPECT_EQ(JsonValue(0).Dump(), "0");
  EXPECT_EQ(JsonValue(std::int64_t{-7}).Dump(), "-7");
}

TEST(JsonTest, RejectsMalformedInput) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(ParseJson("{", &value, &error));
  EXPECT_FALSE(ParseJson("[1,]", &value, &error));
  EXPECT_FALSE(ParseJson("\"unterminated", &value, &error));
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing", &value, &error));
}

// ------------------------------------------------------------- metrics --

TEST(MetricsTest, BucketBoundaries) {
  // Bucket 0 = {0}; bucket i >= 1 = [2^(i-1), 2^i); last bucket clamps.
  EXPECT_EQ(MetricsRegistry::BucketFor(0), 0u);
  EXPECT_EQ(MetricsRegistry::BucketFor(1), 1u);
  EXPECT_EQ(MetricsRegistry::BucketFor(2), 2u);
  EXPECT_EQ(MetricsRegistry::BucketFor(3), 2u);
  EXPECT_EQ(MetricsRegistry::BucketFor(4), 3u);
  EXPECT_EQ(MetricsRegistry::BucketFor(7), 3u);
  EXPECT_EQ(MetricsRegistry::BucketFor(8), 4u);
  for (std::uint32_t i = 2; i < MetricsRegistry::kHistogramBuckets; ++i) {
    const std::uint64_t low = MetricsRegistry::BucketLowerBound(i);
    EXPECT_EQ(MetricsRegistry::BucketFor(low), i) << "bucket " << i;
    EXPECT_EQ(MetricsRegistry::BucketFor(low - 1), i - 1) << "bucket " << i;
  }
  // Everything past the last boundary clamps into the final bucket.
  EXPECT_EQ(MetricsRegistry::BucketFor(~std::uint64_t{0}),
            MetricsRegistry::kHistogramBuckets - 1);
}

TEST(MetricsTest, RegistrationIsIdempotentAndKindChecked) {
  MetricsRegistry registry;
  const MetricId a = registry.Counter("hits");
  const MetricId b = registry.Counter("hits");
  ASSERT_TRUE(a.valid());
  EXPECT_EQ(a.slot, b.slot);
  // Same name, different kind: rejected rather than aliased.
  EXPECT_FALSE(registry.Histogram("hits").valid());
}

TEST(MetricsTest, RegistrationHasNoCap) {
  // 40 histograms take 40 x 33 = 1320 slots; every one must register and
  // keep its observation.
  MetricsRegistry registry;
  constexpr int kHistograms = 40;
  for (int i = 0; i < kHistograms; ++i) {
    const MetricId id = registry.Histogram("h" + std::to_string(i));
    ASSERT_TRUE(id.valid()) << "histogram " << i;
    registry.Observe(id, static_cast<std::uint64_t>(i));
  }
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.metrics.size(), static_cast<std::size_t>(kHistograms));
  for (int i = 0; i < kHistograms; ++i) {
    const MetricSnapshot* h = snapshot.Find("h" + std::to_string(i));
    ASSERT_NE(h, nullptr) << "histogram " << i;
    EXPECT_EQ(h->count, 1u) << "histogram " << i;
    EXPECT_EQ(h->buckets[MetricsRegistry::BucketFor(
                  static_cast<std::uint64_t>(i))],
              1u)
        << "histogram " << i;
  }
}

TEST(MetricsTest, ApproxPercentileReadsTheCeilingRank) {
  // 14 observations in bucket 1 and 2 in bucket 5: the 90th percentile is
  // the ceil(0.9 * 16) = 15th observation, which lies in bucket 5, whose
  // inclusive upper bound is 2^5 - 1.
  MetricSnapshot m;
  m.kind = MetricKind::kHistogram;
  m.buckets.assign(MetricsRegistry::kHistogramBuckets, 0);
  m.buckets[1] = 14;
  m.buckets[5] = 2;
  m.count = 16;
  EXPECT_EQ(m.ApproxPercentile(0.9), 31u);
  EXPECT_EQ(m.ApproxPercentile(0.5), 1u);
  EXPECT_EQ(m.ApproxPercentile(0.875), 1u);  // rank 14 exactly
  EXPECT_EQ(m.ApproxPercentile(1.0), 31u);
}

TEST(MetricsTest, MergesUpdatesAcrossThreads) {
  MetricsRegistry registry;
  const MetricId counter = registry.Counter("work");
  const MetricId histogram = registry.Histogram("latency");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, counter, histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.Add(counter);
        // Thread t observes values in bucket t+1 only.
        registry.Observe(histogram, std::uint64_t{1} << t);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricSnapshot* work = snapshot.Find("work");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->value, static_cast<std::uint64_t>(kThreads * kPerThread));
  const MetricSnapshot* latency = snapshot.Find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(latency->buckets[static_cast<std::size_t>(t) + 1],
              static_cast<std::uint64_t>(kPerThread))
        << "bucket " << t + 1;
  }
}

TEST(MetricsTest, InvalidIdsAreIgnored) {
  MetricsRegistry registry;
  registry.Add(MetricId{});         // must not crash
  registry.Observe(MetricId{}, 7);  // must not crash
  EXPECT_TRUE(registry.Snapshot().metrics.empty());
}

// --------------------------------------------------------------- trace --

TEST(TraceTest, EmittedFileIsWellFormedTraceJson) {
  TraceWriter writer;
  writer.SetThreadName(TraceWriter::CurrentTid(), "main");
  {
    TraceSpan span(&writer, "outer", "test");
    span.AddArg("instance", JsonValue("t1"));
    TraceSpan inner(&writer, "inner", "test");
  }
  writer.InstantEvent("marker", "test", TraceWriter::CurrentTid(),
                      writer.NowMicros());
  ASSERT_EQ(writer.event_count(), 4u);

  const std::string path = TempPath("obs_trace_test.json");
  std::string error;
  ASSERT_TRUE(writer.WriteFile(path, &error)) << error;

  JsonValue parsed;
  ASSERT_TRUE(ParseJson(ReadFileOrDie(path), &parsed, &error)) << error;
  const JsonValue* events = parsed.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->AsArray().size(), 4u);
  for (const JsonValue& event : events->AsArray()) {
    ASSERT_TRUE(event.is_object());
    // The keys the trace_event format requires on every event.
    ASSERT_NE(event.Find("name"), nullptr);
    ASSERT_NE(event.Find("ph"), nullptr);
    ASSERT_NE(event.Find("pid"), nullptr);
    ASSERT_NE(event.Find("tid"), nullptr);
    const std::string& phase = event.Find("ph")->AsString();
    if (phase == "X") {
      EXPECT_NE(event.Find("ts"), nullptr);
      EXPECT_NE(event.Find("dur"), nullptr);
    } else if (phase == "i") {
      EXPECT_NE(event.Find("ts"), nullptr);
    } else {
      EXPECT_EQ(phase, "M");
    }
  }
}

TEST(TraceTest, NullWriterSpansAreNoOps) {
  TraceSpan span(nullptr, "unused", "unused");
  span.AddArg("k", JsonValue(1));
  span.End();  // must not crash
}

// ---------------------------------------------------------- run report --

TEST(RunReportTest, RecordRoundTripsThroughJson) {
  RunRecord record;
  record.instance = "alu4";
  record.phase = "route";
  record.encoding = "ITE-linear-2+muldirect";
  record.symmetry = "s1";
  record.width = 7;
  record.cube_workers = 4;
  record.verdict = "UNSAT";
  record.coloring_seconds = 0.25;
  record.encode_seconds = 0.5;
  record.solve_seconds = 1.5;
  record.total_seconds = 2.25;
  record.cnf_vars = 1234;
  record.cnf_clauses = 56789;
  record.propagations = 111;
  record.binary_propagations = 22;
  record.conflicts = 33;
  record.decisions = 44;
  record.restarts = 5;
  record.learned = 33;
  record.removed = 6;
  record.learnts_core = 1;
  record.learnts_tier2 = 2;
  record.learnts_local = 3;
  record.lbd_histogram = {0, 10, 20, 3};
  record.peak_clause_memory_bytes = 4096;
  record.cubes = 128;
  record.cubes_stolen = 17;
  record.has_observed = true;
  record.observed_propagations = 111;
  record.observed_conflicts = 33;
  record.observed_restarts = 5;
  record.observed_learned = 33;
  record.observed_bcp_seconds = 1.0;
  record.observed_analyze_seconds = 0.25;
  record.observed_inprocess_seconds = 0.125;

  RunRecord reparsed;
  std::string error;
  ASSERT_TRUE(RunRecord::FromJson(record.ToJson(), &reparsed, &error))
      << error;
  EXPECT_EQ(reparsed.ToJson().Dump(), record.ToJson().Dump());
  EXPECT_EQ(reparsed.instance, "alu4");
  EXPECT_EQ(reparsed.width, 7);
  EXPECT_EQ(reparsed.lbd_histogram, record.lbd_histogram);
  EXPECT_TRUE(reparsed.has_observed);
  EXPECT_EQ(reparsed.observed_conflicts, 33u);
}

TEST(RunReportTest, WriterAppendsJsonl) {
  const std::string path = TempPath("obs_report_test.jsonl");
  {
    RunReportWriter writer(path);
    ASSERT_TRUE(writer.ok());
    RunRecord record;
    record.instance = "a";
    record.verdict = "SAT";
    writer.Append(record);
    record.instance = "b";
    writer.Append(record);
    EXPECT_EQ(writer.records_written(), 2u);
  }
  std::vector<RunRecord> records;
  std::string error;
  ASSERT_TRUE(LoadRunReport(path, &records, &error)) << error;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].instance, "a");
  EXPECT_EQ(records[1].instance, "b");
}

// Scoped install/teardown of the global report sink for solve tests.
class ScopedGlobalReport {
 public:
  explicit ScopedGlobalReport(const std::string& path) : writer_(path) {
    EXPECT_TRUE(writer_.ok());
    SetGlobalReport(&writer_);
  }
  ~ScopedGlobalReport() { SetGlobalReport(nullptr); }

 private:
  RunReportWriter writer_;
};

graph::Graph TestGraph() {
  Rng rng(417);
  return testutil::RandomGraph(rng, 14, 0.4);
}

std::string SolveAndReport(const std::string& path) {
  const graph::Graph g = TestGraph();
  {
    ScopedGlobalReport report(path);
    flow::DetailedRouteOptions options;
    options.run_label = "determinism-test";
    const flow::DetailedRouteResult result =
        flow::RouteDetailedOnGraph(g, 4, options);
    EXPECT_NE(result.status, sat::SolveResult::kUnknown);
  }
  return ReadFileOrDie(path);
}

// Recursively zeroes every key whose name ends in "_seconds" — the one
// permitted source of nondeterminism in a fixed-seed report.
void ZeroTimingFields(JsonValue* value) {
  if (value->is_object()) {
    for (auto& [key, child] : value->AsObject()) {
      const bool timing = key.size() >= 8 &&
                          key.compare(key.size() - 8, 8, "_seconds") == 0;
      if (timing && child.is_number()) {
        child = JsonValue(0);
      } else {
        ZeroTimingFields(&child);
      }
    }
  } else if (value->is_array()) {
    for (JsonValue& child : value->AsArray()) ZeroTimingFields(&child);
  }
}

std::string NormalizeReport(const std::string& jsonl) {
  std::string out;
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    JsonValue value;
    std::string error;
    EXPECT_TRUE(ParseJson(line, &value, &error)) << error;
    ZeroTimingFields(&value);
    out += value.Dump();
    out += '\n';
  }
  return out;
}

TEST(RunReportTest, FixedSeedReportIsByteStableModuloTimings) {
  const std::string first = SolveAndReport(TempPath("obs_det_a.jsonl"));
  const std::string second = SolveAndReport(TempPath("obs_det_b.jsonl"));
  // Raw bytes differ (timings); normalized bytes must not.
  EXPECT_EQ(NormalizeReport(first), NormalizeReport(second));
}

// A session answer from the witness writes the same record as a solver
// answer, with a zero solver window, and advances the delta window.
TEST(RunReportTest, SessionWitnessAnswerWritesAZeroWindowRecord) {
  const std::string path = TempPath("obs_session_witness.jsonl");
  {
    ScopedGlobalReport report(path);
    graph::Graph path_graph(3);
    path_graph.AddEdge(0, 1);
    path_graph.AddEdge(1, 2);
    flow::RoutingSessionOptions options;
    options.run_label = "witness-test";
    flow::RoutingSession session(path_graph, 3, options);
    ASSERT_TRUE(session.ok()) << session.error();
    EXPECT_FALSE(session.Solve(3).witness);  // no hints yet
    ASSERT_TRUE(session.RipUp(0));
    EXPECT_TRUE(session.Solve(3).witness);
    EXPECT_TRUE(session.Solve(3).witness);
  }
  std::vector<RunRecord> records;
  std::string error;
  ASSERT_TRUE(LoadRunReport(path, &records, &error)) << error;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(records[0].witness);
  EXPECT_GT(records[0].propagations, 0u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    EXPECT_EQ(r.phase, "session");
    EXPECT_EQ(r.instance, "witness-test");
    EXPECT_EQ(r.verdict, "SAT");
    EXPECT_TRUE(r.witness);
    EXPECT_EQ(r.solve_seconds, 0.0);
    EXPECT_EQ(r.propagations, 0u);
    EXPECT_EQ(r.decisions, 0u);
    EXPECT_EQ(r.conflicts, 0u);
    EXPECT_EQ(r.learned, 0u);
  }
  // The rip-up lands in the first witness record's delta window only.
  EXPECT_EQ(records[1].deltas_applied, 1u);
  EXPECT_EQ(records[1].groups_retired, 1u);
  EXPECT_EQ(records[2].deltas_applied, 0u);
  EXPECT_EQ(records[2].groups_retired, 0u);

  const analysis::AnalysisRunner runner = analysis::MakeDefaultRunner();
  analysis::AnalysisInput input;
  input.run_records = &records;
  const analysis::AnalysisReport report = runner.Run(input);
  EXPECT_TRUE(report.diagnostics.empty()) << analysis::FormatText(report);
}

// ------------------------------------------- telemetry-consistency pass --

TEST(TelemetryConsistencyTest, RealSolveReportHasZeroFindings) {
  const std::string path = TempPath("obs_consistency.jsonl");
  SolveAndReport(path);
  std::vector<RunRecord> records;
  std::string error;
  ASSERT_TRUE(LoadRunReport(path, &records, &error)) << error;
  ASSERT_FALSE(records.empty());
  ASSERT_TRUE(records[0].has_observed);

  const analysis::AnalysisRunner runner = analysis::MakeDefaultRunner();
  analysis::AnalysisInput input;
  input.run_records = &records;
  const analysis::AnalysisReport report = runner.Run(input);
  EXPECT_TRUE(report.diagnostics.empty())
      << analysis::FormatText(report);
}

TEST(TelemetryConsistencyTest, CatchesObserverDrift) {
  const std::string path = TempPath("obs_drift.jsonl");
  SolveAndReport(path);
  std::vector<RunRecord> records;
  std::string error;
  ASSERT_TRUE(LoadRunReport(path, &records, &error)) << error;
  ASSERT_FALSE(records.empty());
  records[0].observed_propagations += 1;  // simulated hook drift

  const analysis::AnalysisRunner runner = analysis::MakeDefaultRunner();
  analysis::AnalysisInput input;
  input.run_records = &records;
  const analysis::AnalysisReport report = runner.Run(input);
  EXPECT_FALSE(report.diagnostics.empty());
}

// ----------------------------------------- observer detach mid-solve --

std::vector<std::string> PassesWithFindings(
    const std::vector<RunRecord>& records) {
  const analysis::AnalysisRunner runner = analysis::MakeDefaultRunner();
  analysis::AnalysisInput input;
  input.run_records = &records;
  const analysis::AnalysisReport report = runner.Run(input);
  std::vector<std::string> passes;
  for (const auto& d : report.diagnostics) passes.push_back(d.pass);
  return passes;
}

// Detaches itself from inside its own restart callback at the first
// sample, recording the solver stats at that instant. Because the solver
// resets the sample baseline before invoking the callback, that snapshot
// is a consistent cut: it equals the attach-time baseline plus every
// window delivered so far.
class DetachingObserver : public SolverTelemetryObserver {
 public:
  explicit DetachingObserver(sat::Solver* solver)
      : SolverTelemetryObserver(nullptr), solver_(solver) {}

  void OnRestartSample(const sat::SolverRestartSample& sample) override {
    SolverTelemetryObserver::OnRestartSample(sample);
    ++samples_;
    if (samples_ == 1) {
      cut_ = solver_->stats();
      solver_->SetObserver(nullptr);  // the sanctioned detach path
    }
  }

  sat::Solver* solver_;
  int samples_ = 0;
  sat::SolverStats cut_;
};

TEST(TelemetryConsistencyTest, ObserverDetachMidSolveStopsPhaseClocks) {
  sat::Solver solver;
  ASSERT_TRUE(solver.AddCnf(testutil::PigeonholeCnf(6)));
  const sat::SolverStats base = solver.stats();
  DetachingObserver observer(&solver);
  solver.SetObserver(&observer);
  ASSERT_EQ(solver.Solve(), sat::SolveResult::kUnsat);

  // The observer detached at the first restart boundary and saw exactly
  // one sample; the solve kept going without it.
  ASSERT_EQ(observer.samples_, 1);
  EXPECT_GT(solver.stats().restarts, observer.cut_.restarts);
  EXPECT_GT(solver.stats().conflicts, observer.cut_.conflicts);

  // The phase clocks stopped the instant the observer detached: timing is
  // re-gated on every search pass, so not a single tick lands afterwards
  // and the totals still equal the cut bit-for-bit at solve end.
  EXPECT_GT(observer.cut_.bcp_seconds, 0.0);
  EXPECT_EQ(solver.stats().bcp_seconds, observer.cut_.bcp_seconds);
  EXPECT_EQ(solver.stats().analyze_seconds, observer.cut_.analyze_seconds);
  EXPECT_EQ(solver.stats().inprocess_seconds,
            observer.cut_.inprocess_seconds);

  // And the cut is consistent: a record pairing the observer's running
  // totals with the solver window up to the detach point shows no drift
  // under the telemetry-consistency pass.
  RunRecord record;
  record.verdict = "UNSAT";
  record.SetSolverWindow(observer.cut_.Since(base));
  observer.FillRecord(&record);
  for (const std::string& pass : PassesWithFindings({record})) {
    EXPECT_NE(pass, "telemetry-consistency");
  }
}

}  // namespace
}  // namespace satfr::obs
