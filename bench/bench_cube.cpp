// E11 — Cube-and-conquer parallel scaling on the unroutable (W = W*-1)
// MCNC-style configurations: the hard UNSAT proofs the paper's Table 2 is
// built around, re-run through the cube worker pool at 1/2/4/8 workers
// with work stealing on.
//
// Each instance is also solved monolithically (same encoding/heuristic/
// solver preset) as the single-search reference. Verdicts must agree —
// a cube run that is not UNSAT on an unroutable configuration aborts the
// bench. With a JSON output path the per-cell wall times land in a report
// (BENCH_pr6.json in CI) that tools/check_parallel_speedup.py gates,
// scaling its expectation by the machine's core count: per-worker speedup
// is only measurable when the cores exist (this bench records
// hardware_concurrency in the report for exactly that reason).
//
// Usage: bench_cube [report.json]
// Env:   SATFR_BENCH_TIMEOUT, SATFR_BENCH_SET (see bench_util.h),
//        SATFR_BENCH_WORKERS  comma-free max worker count (default 8)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cube/cube_solver.h"
#include "flow/detailed_router.h"

namespace {

using namespace satfr;

int MaxWorkers() {
  if (const char* env = std::getenv("SATFR_BENCH_WORKERS")) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return 8;
}

struct Cell {
  double seconds = 0.0;
  bool timed_out = false;
  std::size_t cubes = 0;
  std::size_t stolen = 0;
};

struct InstanceRow {
  std::string name;
  int width = 0;
  Cell monolithic;
  std::vector<Cell> by_workers;  // parallel to the worker-count list
};

}  // namespace

int main(int argc, char** argv) {
  const double timeout = bench::BenchTimeoutSeconds();
  const int max_workers = MaxWorkers();
  std::vector<int> worker_counts;
  for (int w = 1; w <= max_workers; w *= 2) worker_counts.push_back(w);
  const unsigned cores = std::thread::hardware_concurrency();
  // Oversubscribed workers time-slice one another: "speedup" columns beyond
  // the core count measure scheduler fairness, not the cube pool. Flag it
  // loudly and in the report so downstream tooling can discount the run.
  const bool degraded =
      cores > 0 && max_workers > static_cast<int>(cores);
  if (degraded) {
    std::fprintf(stderr,
                 "bench: WARNING: %d workers requested but only %u hardware "
                 "thread(s) available — parallel speedups will be degraded "
                 "and the report is marked degraded_parallelism\n",
                 max_workers, cores);
  }

  std::printf(
      "== Cube-and-conquer scaling on unroutable configurations (W = W*-1) "
      "==\n   encoding ITE-linear-2+muldirect/s1, per-solve timeout %.1fs, "
      "%u hardware threads\n\n",
      timeout, cores);
  std::printf("%-12s %6s %12s", "benchmark", "W", "monolithic");
  for (const int w : worker_counts) {
    std::printf(" %9s", ("cube x" + std::to_string(w)).c_str());
  }
  std::printf(" %9s\n", "speedup");

  std::vector<InstanceRow> rows;
  for (const std::string& name : bench::BenchInstanceNames()) {
    const bench::Instance inst = bench::LoadInstance(name);
    const int width = inst.min_width - 1;
    if (width < 1) {
      std::printf("%-12s  (W*=1: no unroutable configuration)\n",
                  name.c_str());
      continue;
    }
    InstanceRow row;
    row.name = name;
    row.width = width;

    flow::DetailedRouteOptions mono;
    mono.encoding = encode::GetEncoding("ITE-linear-2+muldirect");
    mono.heuristic = symmetry::Heuristic::kS1;
    mono.timeout_seconds = timeout;
    const flow::DetailedRouteResult mono_result =
        flow::RouteDetailedOnGraph(inst.conflict, width, mono);
    row.monolithic.timed_out =
        mono_result.status == sat::SolveResult::kUnknown;
    row.monolithic.seconds =
        row.monolithic.timed_out ? timeout : mono_result.TotalSeconds();
    std::printf("%-12s %6d %12s", name.c_str(), width,
                bench::TimeCell(row.monolithic.seconds,
                                row.monolithic.timed_out)
                    .c_str());
    std::fflush(stdout);

    for (const int workers : worker_counts) {
      cube::CubeSolveOptions options;
      options.pool.num_workers = workers;
      options.timeout_seconds = timeout;
      const cube::CubeSolveResult result = cube::SolveColoringWithCubes(
          inst.conflict, width, encode::GetEncoding("ITE-linear-2+muldirect"),
          symmetry::Heuristic::kS1, options);
      Cell cell;
      cell.timed_out = result.status == sat::SolveResult::kUnknown;
      cell.seconds = cell.timed_out ? timeout : result.wall_seconds;
      cell.cubes = result.num_cubes;
      cell.stolen = result.cubes_stolen;
      if (!cell.timed_out && result.status != sat::SolveResult::kUnsat) {
        std::printf("\nbench: cube run on %s at W=%d was not UNSAT!\n",
                    name.c_str(), width);
        return 1;
      }
      row.by_workers.push_back(cell);
      std::printf(" %9s",
                  bench::TimeCell(cell.seconds, cell.timed_out).c_str());
      std::fflush(stdout);
    }
    const Cell& one = row.by_workers.front();
    const Cell& top = row.by_workers.back();
    if (top.seconds > 0.0 && !one.timed_out && !top.timed_out) {
      std::printf(" %8.2fx\n", one.seconds / top.seconds);
    } else {
      std::printf(" %9s\n", "n/a");
    }
    rows.push_back(std::move(row));
  }

  if (argc > 1) {
    // Same schema as the historical fprintf emitter (consumed by
    // tools/check_parallel_speedup.py), plus degraded_parallelism.
    obs::JsonObject doc;
    doc.emplace_back("hardware_concurrency",
                     obs::JsonValue(static_cast<std::uint64_t>(cores)));
    doc.emplace_back("degraded_parallelism", obs::JsonValue(degraded));
    doc.emplace_back("timeout_seconds", obs::JsonValue(timeout));
    obs::JsonArray workers_json;
    for (const int w : worker_counts) {
      workers_json.emplace_back(w);
    }
    doc.emplace_back("workers", obs::JsonValue(std::move(workers_json)));
    obs::JsonArray instances;
    for (const InstanceRow& row : rows) {
      obs::JsonObject inst_json;
      inst_json.emplace_back("name", obs::JsonValue(row.name));
      inst_json.emplace_back("width", obs::JsonValue(row.width));
      inst_json.emplace_back("monolithic_seconds",
                             obs::JsonValue(row.monolithic.seconds));
      inst_json.emplace_back("monolithic_timeout",
                             obs::JsonValue(row.monolithic.timed_out));
      inst_json.emplace_back(
          "cubes", obs::JsonValue(static_cast<std::uint64_t>(
                       row.by_workers.front().cubes)));
      obs::JsonArray seconds_json;
      obs::JsonArray timeouts_json;
      obs::JsonArray stolen_json;
      for (const Cell& cell : row.by_workers) {
        seconds_json.emplace_back(cell.seconds);
        timeouts_json.emplace_back(cell.timed_out);
        stolen_json.emplace_back(static_cast<std::uint64_t>(cell.stolen));
      }
      inst_json.emplace_back("cube_seconds",
                             obs::JsonValue(std::move(seconds_json)));
      inst_json.emplace_back("cube_timeouts",
                             obs::JsonValue(std::move(timeouts_json)));
      inst_json.emplace_back("cubes_stolen",
                             obs::JsonValue(std::move(stolen_json)));
      instances.emplace_back(std::move(inst_json));
    }
    doc.emplace_back("instances", obs::JsonValue(std::move(instances)));
    if (!bench::WriteJsonReport(argv[1], obs::JsonValue(std::move(doc)))) {
      return 1;
    }
    std::printf("\nwrote %s\n", argv[1]);
  }
  return 0;
}
