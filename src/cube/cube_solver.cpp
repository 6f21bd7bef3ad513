#include "cube/cube_solver.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "encode/csp_to_cnf.h"
#include "mc/annotations.h"
#include "mc/shim.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/solver_trace.h"
#include "obs/trace.h"
#include "sat/clause_sink.h"

namespace satfr::cube {

namespace {

// One batch's cube supply, split into one share per worker under a single
// mutex. Worker w's share is the cubes i ≡ w (mod n) in ascending order.
// The owner takes from the front, so it walks its share in generator order
// (the deterministic-mode guarantee); a thief takes from the back of a
// victim's share, the cube that victim would have reached last. A batch
// holds at most a few hundred cubes, each a millisecond-scale solve, so
// one lock taken once per cube costs nothing measurable, and under it
// "every share is empty" is exact: the supply never refills.
class CubeShares {
 public:
  struct Taken {
    std::size_t cube = 0;
    int from = 0;  // the share it came from; != the taker for a steal
  };

  CubeShares(std::size_t num_cubes, int num_workers)
      : stride_(static_cast<std::size_t>(num_workers)) {
    shares_.reserve(stride_);
    for (std::size_t w = 0; w < stride_; ++w) {
      const std::size_t count =
          w < num_cubes ? (num_cubes - w + stride_ - 1) / stride_ : 0;
      shares_.push_back({w, w + count * stride_});
    }
  }

  /// The front of worker w's share or, when that is empty and `may_steal`,
  /// the back of the first non-empty share after w (w+1, w+2, ... mod n).
  /// nullopt when no share the caller may take from holds a cube.
  std::optional<Taken> Take(int w, bool may_steal) SATFR_EXCLUDES(mutex_) {
    mc::MutexLock lock(mutex_);
    Share& own = shares_[static_cast<std::size_t>(w)];
    if (own.front < own.back) {
      const std::size_t cube = own.front;
      own.front += stride_;
      return Taken{cube, w};
    }
    if (!may_steal) return std::nullopt;
    const int n = static_cast<int>(stride_);
    for (int k = 1; k < n; ++k) {
      const int victim = (w + k) % n;
      Share& share = shares_[static_cast<std::size_t>(victim)];
      if (share.front < share.back) {
        share.back -= stride_;
        return Taken{share.back, victim};
      }
    }
    return std::nullopt;
  }

 private:
  // The cubes front, front + n, front + 2n, ... below back.
  struct Share {
    std::size_t front;
    std::size_t back;
  };

  const std::size_t stride_;
  mc::Mutex mutex_;
  std::vector<Share> shares_ SATFR_GUARDED_BY(mutex_);
};

}  // namespace

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
    const std::atomic<bool>* external_stop) {
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
  CubeShares shares(cubes.size(), n);

  std::atomic<bool> pool_stop{false};
  std::atomic<bool> found_sat{false};
  std::atomic<bool> refuted{false};
  std::atomic<std::size_t> resolved{0};
  mc::Mutex winner_mutex;

  // Telemetry plumbing. Each slot below is written only by its own worker
  // thread (and read after the join), so plain non-atomic storage is fine.
  obs::TraceWriter* const trace = obs::GlobalTrace();
  const bool telemetry = trace != nullptr || obs::GlobalReport() != nullptr;
  out.worker_loads.resize(static_cast<std::size_t>(n));
  std::vector<sat::SolverStats> observed_per_worker(
      static_cast<std::size_t>(n));

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
    while (!pool_stop.load(std::memory_order_relaxed)) {
      if (external_stop != nullptr &&
          external_stop->load(std::memory_order_relaxed)) {
        pool_stop.store(true, std::memory_order_relaxed);
        break;
      }
      const std::optional<CubeShares::Taken> taken =
          shares.Take(w, !options_.deterministic);
      if (!taken.has_value()) break;
      const std::size_t idx = taken->cube;
      if (taken->from != w) {
        ++load.steals;
        if (trace != nullptr) {
          trace->InstantEvent(
              "steal", "cube", tid, trace->NowMicros(),
              {{"cube", obs::JsonValue(static_cast<std::uint64_t>(idx))},
               {"from", obs::JsonValue(taken->from)}});
        }
      }
      assumptions = base_assumptions;
      const std::vector<sat::Lit>& cube = cubes[idx];
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
  std::atomic<bool> batch_done{false};
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
  for (const WorkerLoad& load : out.worker_loads) {
    out.cubes_stolen += load.steals;
  }
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
