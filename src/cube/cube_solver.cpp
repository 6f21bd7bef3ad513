#include "cube/cube_solver.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "cube/work_queue.h"
#include "encode/csp_to_cnf.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/solver_trace.h"
#include "obs/trace.h"
#include "sat/clause_sink.h"

namespace satfr::cube {

CubeWorkerPool::CubeWorkerPool(
    const sat::SolverOptions& solver_options, const CubePoolOptions& options,
    const std::function<bool(int, sat::Solver&)>& setup)
    : options_(options) {
  const int n = std::max(1, options.num_workers);
  for (int w = 0; w < n; ++w) {
    sat::SolverOptions per_worker = solver_options;
    if (w > 0) {
      // Decorrelate the random decisions/polarities so workers that steal
      // into the same region don't retrace each other's searches.
      per_worker.seed = solver_options.seed +
                        0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(w);
    }
    workers_.push_back(std::make_unique<sat::Solver>(per_worker));
    if (!setup(w, *workers_.back())) ok_ = false;
  }
}

CubeWorkerPool::~CubeWorkerPool() = default;

CubeWorkerPool::BatchResult CubeWorkerPool::SolveBatch(
    const std::vector<std::vector<sat::Lit>>& cubes,
    const std::vector<sat::Lit>& base_assumptions, Deadline deadline,
    const mc::Atomic<bool>* external_stop) {
  BatchResult out;
  if (!ok_) {
    out.status = sat::SolveResult::kUnsat;
    out.refuted = true;
    return out;
  }
  if (cubes.empty()) {
    // The generator pruned every leaf; each pruned leaf is refuted by
    // emitted clauses, so the empty cover already proves UNSAT.
    out.status = sat::SolveResult::kUnsat;
    return out;
  }

  const int n = num_workers();
  const std::size_t per_worker =
      (cubes.size() + static_cast<std::size_t>(n) - 1) /
      static_cast<std::size_t>(n);

  // Round-robin seeding: cube i goes to deque i % n, pushed largest-index
  // first so the owner's LIFO pops walk its share in ascending generator
  // order (the deterministic-mode order guarantee).
  std::vector<std::unique_ptr<WorkStealingDeque>> deques;
  deques.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    deques.push_back(
        std::make_unique<WorkStealingDeque>(std::max<std::size_t>(
            per_worker, 1)));
  }
  for (std::int64_t i = static_cast<std::int64_t>(cubes.size()) - 1; i >= 0;
       --i) {
    deques[static_cast<std::size_t>(i) % static_cast<std::size_t>(n)]
        ->PushBottom(i);
  }

  mc::Atomic<bool> pool_stop{false};
  mc::Atomic<bool> found_sat{false};
  mc::Atomic<bool> refuted{false};
  mc::Atomic<std::size_t> resolved{0};
  mc::Atomic<std::size_t> stolen{0};
  mc::Mutex winner_mutex;

  // Telemetry plumbing. Each slot below is written only by its own worker
  // thread (and read after the join), so plain non-atomic storage is fine.
  obs::TraceWriter* const trace = obs::GlobalTrace();
  const bool telemetry = trace != nullptr || obs::GlobalReport() != nullptr;
  out.worker_loads.resize(static_cast<std::size_t>(n));
  std::vector<sat::SolverStats> observed_per_worker(
      static_cast<std::size_t>(n));

  const auto take_work = [&](int w, std::int64_t* idx, std::uint64_t tid) {
    if (deques[static_cast<std::size_t>(w)]->PopBottom(idx)) return true;
    if (options_.deterministic) return false;
    // Steal phase: scan the other deques until one yields work or all are
    // empty. A failed Steal can mean "lost a race", so emptiness of every
    // deque — not a single failed attempt — is the termination condition
    // (the cube supply is fixed; an empty deque never refills).
    while (!pool_stop.load(std::memory_order_relaxed)) {
      bool any_nonempty = false;
      for (int k = 1; k < n; ++k) {
        const int victim_index = (w + k) % n;
        WorkStealingDeque& victim =
            *deques[static_cast<std::size_t>(victim_index)];
        if (victim.Steal(idx)) {
          stolen.fetch_add(1, std::memory_order_relaxed);
          ++out.worker_loads[static_cast<std::size_t>(w)].steals;
          if (trace != nullptr) {
            trace->InstantEvent("steal", "cube", tid, trace->NowMicros(),
                                {{"cube", obs::JsonValue(*idx)},
                                 {"from", obs::JsonValue(victim_index)}});
          }
          return true;
        }
        if (!victim.Empty()) any_nonempty = true;
      }
      if (!any_nonempty) return false;
      std::this_thread::yield();
    }
    return false;
  };

  const auto run_worker = [&](int w) {
    sat::Solver& solver = *workers_[static_cast<std::size_t>(w)];
    WorkerLoad& load = out.worker_loads[static_cast<std::size_t>(w)];
    const std::uint64_t tid = obs::TraceWriter::CurrentTid();
    if (trace != nullptr) {
      trace->SetThreadName(tid, "cube-worker " + std::to_string(w));
    }
    std::optional<obs::SolverTelemetryObserver> observer;
    if (telemetry) {
      observer.emplace(trace, tid);
      solver.SetObserver(&*observer);
    }
    std::vector<sat::Lit> assumptions;
    std::int64_t idx = 0;
    while (!pool_stop.load(std::memory_order_relaxed)) {
      if (external_stop != nullptr &&
          external_stop->load(std::memory_order_relaxed)) {
        pool_stop.store(true, std::memory_order_relaxed);
        break;
      }
      if (!take_work(w, &idx, tid)) break;
      assumptions = base_assumptions;
      const std::vector<sat::Lit>& cube =
          cubes[static_cast<std::size_t>(idx)];
      assumptions.insert(assumptions.end(), cube.begin(), cube.end());
      std::optional<obs::TraceSpan> cube_span;
      if (trace != nullptr) {
        cube_span.emplace(trace, "cube " + std::to_string(idx), "cube", tid);
      }
      Stopwatch busy_watch;
      const sat::SolveResult status =
          solver.SolveWithAssumptions(assumptions, deadline, &pool_stop);
      load.busy_seconds += busy_watch.Seconds();
      ++load.cubes;
      if (cube_span.has_value()) {
        cube_span->AddArg("verdict", obs::JsonValue(sat::ToString(status)));
        cube_span->End();
      }
      if (status == sat::SolveResult::kSat) {
        mc::MutexLock lock(winner_mutex);
        if (!found_sat.load(std::memory_order_relaxed)) {
          found_sat.store(true, std::memory_order_relaxed);
          out.winning_cube = static_cast<int>(idx);
          out.model = solver.model();
        }
        pool_stop.store(true, std::memory_order_relaxed);
        break;
      }
      if (status == sat::SolveResult::kUnsat) {
        if (!solver.okay()) {
          // Level-0 refutation: assumption-independent, the formula itself
          // is UNSAT. No need to look at the remaining cubes.
          refuted.store(true, std::memory_order_relaxed);
          pool_stop.store(true, std::memory_order_relaxed);
          break;
        }
        resolved.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      break;  // kUnknown: deadline hit or pool_stop raised mid-search
    }
    if (observer.has_value()) {
      // Detach before the observer goes out of scope: the solver outlives
      // this batch.
      solver.SetObserver(nullptr);
      observed_per_worker[static_cast<std::size_t>(w)] = observer->observed();
    }
  };

  // Workers poll pool_stop from inside SolveWithAssumptions, but only check
  // external_stop between cubes — a worker deep in a hard cube would never
  // see an external cancellation. The monitor bridges the two, so stopping
  // the pool (portfolio loss, CLI ^C path) interrupts mid-cube search.
  mc::Atomic<bool> batch_done{false};
  std::thread monitor;
  if (external_stop != nullptr) {
    monitor = std::thread([&] {
      while (!batch_done.load(std::memory_order_relaxed)) {
        if (external_stop->load(std::memory_order_relaxed)) {
          pool_stop.store(true, std::memory_order_relaxed);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  if (n == 1) {
    run_worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w) threads.emplace_back(run_worker, w);
    for (std::thread& t : threads) t.join();
  }
  batch_done.store(true, std::memory_order_relaxed);
  if (monitor.joinable()) monitor.join();

  out.cubes_resolved = resolved.load(std::memory_order_relaxed);
  out.cubes_stolen = stolen.load(std::memory_order_relaxed);
  if (telemetry) {
    out.has_observed = true;
    for (const sat::SolverStats& s : observed_per_worker) {
      out.observed.Accumulate(s);
    }
  }
  {
    struct CubeMetricIds {
      obs::MetricId resolved = obs::GlobalMetrics().Counter("cube.resolved");
      obs::MetricId stolen = obs::GlobalMetrics().Counter("cube.stolen");
      obs::MetricId batches = obs::GlobalMetrics().Counter("cube.batches");
    };
    static const CubeMetricIds ids;
    obs::MetricsRegistry& metrics = obs::GlobalMetrics();
    metrics.Add(ids.resolved,
                static_cast<std::uint64_t>(out.cubes_resolved));
    metrics.Add(ids.stolen, static_cast<std::uint64_t>(out.cubes_stolen));
    metrics.Add(ids.batches);
  }
  if (found_sat.load(std::memory_order_relaxed)) {
    out.status = sat::SolveResult::kSat;
  } else if (refuted.load(std::memory_order_relaxed)) {
    out.status = sat::SolveResult::kUnsat;
    out.refuted = true;
    ok_ = false;
  } else if (out.cubes_resolved == cubes.size()) {
    out.status = sat::SolveResult::kUnsat;
  }
  return out;
}

sat::SolverStats CubeWorkerPool::MergedStats() const {
  // Field-wise sum via the shared accumulator, so a SolverStats counter
  // added tomorrow is merged here without another hand-written line.
  // Summed solve_seconds is aggregate CPU seconds, not wall clock.
  sat::SolverStats merged;
  for (const auto& w : workers_) merged.Accumulate(w->stats());
  return merged;
}

CubeSolveResult SolveColoringWithCubes(const graph::Graph& g, int num_colors,
                                       const encode::EncodingSpec& encoding,
                                       symmetry::Heuristic heuristic,
                                       const CubeSolveOptions& options) {
  Stopwatch stopwatch;
  CubeSolveResult result;
  obs::TraceWriter* const trace = obs::GlobalTrace();
  obs::RunReportWriter* const report = obs::GlobalReport();
  const char* const label =
      options.run_label.empty() ? "graph" : options.run_label.c_str();
  obs::TraceSpan solve_span(trace, "cube_solve", "cube");
  solve_span.AddArg("instance", obs::JsonValue(label));
  solve_span.AddArg("encoding", obs::JsonValue(encoding.name));
  solve_span.AddArg("width", obs::JsonValue(num_colors));

  const auto sequence =
      symmetry::SymmetrySequence(g, num_colors, heuristic);
  const encode::DomainEncoding domain =
      encode::EncodeDomain(encoding, num_colors);

  // Every worker loads the identical formula; worker 0's layout serves all
  // of them for decoding (same encoding + sequence => same numbering).
  encode::ColoringLayout layout;
  const auto setup = [&](int w, sat::Solver& solver) {
    sat::SolverSink sink(solver);
    encode::ColoringLayout built =
        encode::EncodeColoringToSink(g, num_colors, encoding, sequence, sink);
    if (w == 0) layout = std::move(built);
    return sink.Finish();
  };
  CubeWorkerPool pool(options.solver, options.pool, setup);

  const CubeSet cube_set =
      GenerateCubes(g, domain, num_colors, sequence, options.gen);
  result.num_cubes = cube_set.cubes.size();
  result.pruned_conflict = cube_set.pruned_conflict;
  result.pruned_symmetry = cube_set.pruned_symmetry;

  const Deadline deadline = Deadline::FromTimeout(options.timeout_seconds);
  // Loading the formula can already propagate top-level units, so the
  // batch's solver window is a stats DELTA, not the pool's lifetime total —
  // the telemetry-consistency pass compares it against the observer sums,
  // which only cover the batch.
  const sat::SolverStats pre_batch = pool.MergedStats();
  CubeWorkerPool::BatchResult batch =
      pool.SolveBatch(cube_set.cubes, {}, deadline, options.stop);

  result.status = batch.status;
  result.winning_cube = batch.winning_cube;
  result.cubes_resolved = batch.cubes_resolved;
  result.cubes_stolen = batch.cubes_stolen;
  result.worker_loads = std::move(batch.worker_loads);
  if (batch.status == sat::SolveResult::kSat) {
    result.error = encode::DecodeProperColoring(g, layout, batch.model,
                                                num_colors, &result.colors);
    if (!result.error.empty()) {
      // A solver or encoding bug: report kUnknown instead of a false SAT.
      result.status = sat::SolveResult::kUnknown;
      result.winning_cube = -1;
    }
  }
  result.solver_stats = pool.MergedStats();
  result.wall_seconds = stopwatch.Seconds();
  solve_span.AddArg("verdict", obs::JsonValue(sat::ToString(result.status)));
  solve_span.AddArg("cubes",
                    obs::JsonValue(static_cast<std::uint64_t>(
                        result.num_cubes)));
  solve_span.End();

  if (report != nullptr) {
    obs::RunRecord record;
    record.instance = label;
    record.phase = "cube";
    record.encoding = encoding.name;
    record.symmetry = symmetry::ToString(heuristic);
    record.width = num_colors;
    record.cube_workers = pool.num_workers();
    record.verdict = sat::ToString(result.status);
    // solve_seconds follows the merged-stats convention: aggregate CPU
    // seconds over all workers (the observed phase split sums the same
    // way); wall clock lives in total_seconds.
    const sat::SolverStats window = result.solver_stats.Since(pre_batch);
    record.solve_seconds = window.solve_seconds;
    record.total_seconds = result.wall_seconds;
    record.cnf_vars = static_cast<std::uint64_t>(layout.num_vars);
    record.cnf_clauses =
        static_cast<std::uint64_t>(layout.stats.TotalEmitted());
    record.SetSolverWindow(window);
    record.cubes = static_cast<std::uint64_t>(result.num_cubes);
    record.cubes_stolen = static_cast<std::uint64_t>(result.cubes_stolen);
    if (batch.has_observed) {
      record.has_observed = true;
      record.observed_propagations = batch.observed.propagations;
      record.observed_conflicts = batch.observed.conflicts;
      record.observed_restarts = batch.observed.restarts;
      record.observed_learned = batch.observed.learned;
      record.observed_bcp_seconds = batch.observed.bcp_seconds;
      record.observed_analyze_seconds = batch.observed.analyze_seconds;
      record.observed_inprocess_seconds = batch.observed.inprocess_seconds;
    }
    report->Append(record);
  }
  return result;
}

}  // namespace satfr::cube
