// Cube-and-conquer execution: resident-solver worker pool and the one-shot
// coloring entry point.
//
// A CubeWorkerPool owns N sat::Solver instances, one per worker, each
// loaded once with the full formula by a caller-supplied setup callback.
// Every SolveBatch call then deals the cube set into one share per worker
// (cube i goes to worker i mod n, one mutex guards every share, and an idle
// worker steals from the back of another's share) and solves each cube
// with SolveWithAssumptions on the worker's RESIDENT solver — learnt
// clauses, VSIDS activities, phase saving, and learnt-tier state persist
// across cubes and across batches, which is where the approach beats
// fork-per-cube designs: each refuted cube strengthens the solver that will
// refute the next one. Workers share no clauses.
//
// Verdict aggregation is exact:
//   * any cube SAT            => kSat with that worker's model (callers
//                                decode and validate it against the graph);
//   * a worker's okay() drops => the formula itself is refuted (a level-0
//                                conflict is assumption-independent):
//                                kUnsat immediately, remaining cubes moot;
//   * every cube refuted      => kUnsat (the cube set covers the space:
//                                branching is over value cubes whose
//                                disjunction the encoding entails, and the
//                                generator only pruned entailed-UNSAT
//                                leaves — an EMPTY batch is therefore
//                                kUnsat too);
//   * otherwise               => kUnknown (deadline or external stop).
//
// Deterministic mode pins each worker's cube order (no stealing), so a
// single-worker run visits cubes in exactly the generator's order with a
// bit-reproducible search.
#ifndef SATFR_CUBE_CUBE_SOLVER_H_
#define SATFR_CUBE_CUBE_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "cube/cube_gen.h"
#include "encode/registry.h"
#include "graph/graph.h"
#include "sat/solver.h"
#include "symmetry/symmetry.h"

namespace satfr::cube {

struct CubePoolOptions {
  int num_workers = 1;
  /// Pin per-worker cube order: no stealing. With one worker the whole run
  /// is bit-reproducible and visits cubes in generator order.
  bool deterministic = false;
};

class CubeWorkerPool {
 public:
  /// Creates the resident solvers and calls `setup(worker_index, solver)`
  /// on each to load the formula. A false return from setup means the
  /// formula was refuted while loading (e.g. SolverSink::Finish failed);
  /// the pool records it and every SolveBatch reports kUnsat/refuted.
  /// Worker 0 uses `solver_options` verbatim; workers 1..N-1 get decorrelated
  /// seeds (same search parameters otherwise).
  CubeWorkerPool(const sat::SolverOptions& solver_options,
                 const CubePoolOptions& options,
                 const std::function<bool(int, sat::Solver&)>& setup);
  ~CubeWorkerPool();

  CubeWorkerPool(const CubeWorkerPool&) = delete;
  CubeWorkerPool& operator=(const CubeWorkerPool&) = delete;

  /// Per-worker load figures for one batch (telemetry + the `satfr --cube`
  /// end-of-run summary).
  struct WorkerLoad {
    /// Wall time this worker spent inside SolveWithAssumptions.
    double busy_seconds = 0.0;
    /// Cubes this worker solved (own share + stolen).
    std::size_t cubes = 0;
    /// Cubes this worker stole from other workers' shares.
    std::size_t steals = 0;
  };

  struct BatchResult {
    sat::SolveResult status = sat::SolveResult::kUnknown;
    /// Index into the batch's cube vector of the SAT cube; -1 otherwise.
    int winning_cube = -1;
    /// The winning worker's model (empty unless status == kSat).
    std::vector<bool> model;
    /// True when kUnsat came from a worker's okay() turning false (the
    /// formula itself is refuted, not just every cube).
    bool refuted = false;
    /// Cubes individually refuted in this batch.
    std::size_t cubes_resolved = 0;
    /// Cubes a worker took from another worker's share (Σ steals).
    std::size_t cubes_stolen = 0;
    /// One entry per worker.
    std::vector<WorkerLoad> worker_loads;
    /// Counter totals accumulated through the per-worker SolverObserver
    /// hooks during this batch; all-zero (has_observed false) when
    /// telemetry is off. Cross-checked against MergedStats deltas by the
    /// telemetry-consistency pass.
    bool has_observed = false;
    sat::SolverStats observed;
  };

  /// Solves every cube (assumptions = base_assumptions + cube) and
  /// aggregates the verdict. Solver state persists into the next batch.
  /// `external_stop`, when non-null, cancels the batch (status kUnknown).
  BatchResult SolveBatch(const std::vector<std::vector<sat::Lit>>& cubes,
                         const std::vector<sat::Lit>& base_assumptions,
                         Deadline deadline = Deadline(),
                         const std::atomic<bool>* external_stop = nullptr);

  int num_workers() const { return static_cast<int>(workers_.size()); }
  /// False once any worker's formula was refuted (at load or in a batch).
  bool okay() const { return ok_; }
  /// Counter sums over all resident solvers (cumulative across batches).
  sat::SolverStats MergedStats() const;

 private:
  const CubePoolOptions options_;
  std::vector<std::unique_ptr<sat::Solver>> workers_;
  bool ok_ = true;
};

struct CubeSolveOptions {
  CubePoolOptions pool;
  CubeGenOptions gen;
  sat::SolverOptions solver = sat::SolverOptions::SiegeLike();
  /// Wall-clock budget for the whole solve; <= 0 means unlimited.
  double timeout_seconds = 0.0;
  /// Optional cooperative cancellation (portfolio member use).
  const std::atomic<bool>* stop = nullptr;
  /// Telemetry label (trace spans / run-report records); empty is fine.
  std::string run_label;
};

struct CubeSolveResult {
  sat::SolveResult status = sat::SolveResult::kUnknown;
  /// Proper coloring when status == kSat (encode::DecodeProperColoring).
  std::vector<int> colors;
  /// Non-empty when the model failed that check (a solver or encoding
  /// bug); status is then kUnknown.
  std::string error;

  std::size_t num_cubes = 0;
  std::size_t cubes_resolved = 0;
  std::size_t cubes_stolen = 0;
  std::size_t pruned_conflict = 0;
  std::size_t pruned_symmetry = 0;
  /// Cube index that produced the model; -1 unless kSat.
  int winning_cube = -1;
  /// Counter sums over all workers.
  sat::SolverStats solver_stats;
  /// Per-worker busy/steal figures (see CubeWorkerPool::WorkerLoad).
  std::vector<CubeWorkerPool::WorkerLoad> worker_loads;
  double wall_seconds = 0.0;
};

/// One-shot cube-and-conquer K-coloring solve: encodes (g, num_colors,
/// encoding, heuristic) into each worker's resident solver, generates the
/// cube set, runs one batch, and decodes/validates a SAT model.
CubeSolveResult SolveColoringWithCubes(const graph::Graph& g, int num_colors,
                                       const encode::EncodingSpec& encoding,
                                       symmetry::Heuristic heuristic,
                                       const CubeSolveOptions& options = {});

}  // namespace satfr::cube

#endif  // SATFR_CUBE_CUBE_SOLVER_H_
