// WalkSAT-style stochastic local search (Selman/Kautz style).
//
// The paper's routable configurations produce satisfiable formulas that
// modern solvers dispatch "in a fraction of a second"; the local-search
// line of work it cites (Selman et al. '92; Frisch & Peugniez; Prestwich)
// attacks exactly these instances. This solver complements the CDCL engine:
// it can only answer SAT (it is incomplete — kUnknown means "gave up", not
// UNSAT), so the flow layer uses it as an optional accelerator for
// routable-width queries and as an extra portfolio member.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "sat/cnf.h"
#include "sat/solver.h"  // SolveResult

namespace satfr::sat {

struct WalkSatOptions {
  /// Probability of a random walk move (vs greedy min-break) on a variable
  /// from an unsatisfied clause.
  double noise = 0.5;
  /// Flips per try before restarting with a fresh random assignment.
  std::uint64_t flips_per_try = 100000;
  /// Number of random restarts; 0 means "until deadline".
  int max_tries = 0;
  std::uint64_t seed = 0xC0FFEE;
};

struct WalkSatStats {
  std::uint64_t flips = 0;
  std::uint64_t tries = 0;
  double solve_seconds = 0.0;
};

class WalkSat {
 public:
  explicit WalkSat(const Cnf& cnf, WalkSatOptions options = {});

  /// Runs local search. Returns kSat with a model, or kUnknown when the
  /// budget (tries/deadline/stop flag) is exhausted. Never returns kUnsat.
  SolveResult Solve(Deadline deadline = Deadline(),
                    const std::atomic<bool>* stop = nullptr);

  const std::vector<bool>& model() const { return assignment_; }
  const WalkSatStats& stats() const { return stats_; }

 private:
  void RandomizeAssignment();
  void RebuildState();
  /// Number of clauses that would become unsatisfied if v flipped.
  int BreakCount(Var v) const;
  void Flip(Var v);

  const Cnf& cnf_;
  WalkSatOptions options_;
  WalkSatStats stats_;
  Rng rng_;

  std::vector<bool> assignment_;
  // Clause bookkeeping.
  std::vector<int> true_literal_count_;       // per clause
  std::vector<std::size_t> unsat_clauses_;    // indices of unsat clauses
  std::vector<int> unsat_position_;           // clause -> index in ^ or -1
  std::vector<std::vector<std::size_t>> occurrences_;  // var -> clauses
};

}  // namespace satfr::sat
