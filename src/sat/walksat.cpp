#include "sat/walksat.h"

#include <cassert>
#include <limits>

namespace satfr::sat {

WalkSat::WalkSat(const Cnf& cnf, WalkSatOptions options)
    : cnf_(cnf), options_(options), rng_(options.seed) {
  assignment_.resize(static_cast<std::size_t>(cnf.num_vars()));
  occurrences_.resize(static_cast<std::size_t>(cnf.num_vars()));
  for (std::size_t c = 0; c < cnf_.clauses().size(); ++c) {
    for (const Lit l : cnf_.clauses()[c]) {
      occurrences_[static_cast<std::size_t>(l.var())].push_back(c);
    }
  }
  true_literal_count_.resize(cnf_.clauses().size(), 0);
  unsat_position_.resize(cnf_.clauses().size(), -1);
}

void WalkSat::RandomizeAssignment() {
  for (std::size_t v = 0; v < assignment_.size(); ++v) {
    assignment_[v] = rng_.NextBool(0.5);
  }
}

void WalkSat::RebuildState() {
  unsat_clauses_.clear();
  for (std::size_t c = 0; c < cnf_.clauses().size(); ++c) {
    int count = 0;
    for (const Lit l : cnf_.clauses()[c]) {
      if (assignment_[static_cast<std::size_t>(l.var())] != l.negated()) {
        ++count;
      }
    }
    true_literal_count_[c] = count;
    if (count == 0) {
      unsat_position_[c] = static_cast<int>(unsat_clauses_.size());
      unsat_clauses_.push_back(c);
    } else {
      unsat_position_[c] = -1;
    }
  }
}

int WalkSat::BreakCount(Var v) const {
  // Clauses where v's literal is currently the single true literal.
  int breaks = 0;
  for (const std::size_t c : occurrences_[static_cast<std::size_t>(v)]) {
    if (true_literal_count_[c] != 1) continue;
    for (const Lit l : cnf_.clauses()[c]) {
      if (l.var() == v &&
          assignment_[static_cast<std::size_t>(v)] != l.negated()) {
        ++breaks;
        break;
      }
    }
  }
  return breaks;
}

void WalkSat::Flip(Var v) {
  const bool old_value = assignment_[static_cast<std::size_t>(v)];
  assignment_[static_cast<std::size_t>(v)] = !old_value;
  for (const std::size_t c : occurrences_[static_cast<std::size_t>(v)]) {
    // Recompute the delta from this variable's literals in clause c.
    int delta = 0;
    for (const Lit l : cnf_.clauses()[c]) {
      if (l.var() != v) continue;
      const bool was_true = (old_value != l.negated());
      delta += was_true ? -1 : 1;
    }
    if (delta == 0) continue;
    const int before = true_literal_count_[c];
    const int after = before + delta;
    true_literal_count_[c] = after;
    if (before == 0 && after > 0) {
      // Clause became satisfied: remove from the unsat list.
      const int pos = unsat_position_[c];
      const std::size_t last = unsat_clauses_.back();
      unsat_clauses_[static_cast<std::size_t>(pos)] = last;
      unsat_position_[last] = pos;
      unsat_clauses_.pop_back();
      unsat_position_[c] = -1;
    } else if (before > 0 && after == 0) {
      unsat_position_[c] = static_cast<int>(unsat_clauses_.size());
      unsat_clauses_.push_back(c);
    }
  }
}

SolveResult WalkSat::Solve(Deadline deadline,
                           const std::atomic<bool>* stop) {
  Stopwatch stopwatch;
  // Empty clauses can never be satisfied; bail out honestly.
  for (const Clause& clause : cnf_.clauses()) {
    if (clause.empty()) return SolveResult::kUnknown;
  }
  for (int try_index = 0;
       options_.max_tries == 0 || try_index < options_.max_tries;
       ++try_index) {
    ++stats_.tries;
    RandomizeAssignment();
    RebuildState();
    for (std::uint64_t flip = 0; flip < options_.flips_per_try; ++flip) {
      if (unsat_clauses_.empty()) {
        stats_.solve_seconds += stopwatch.Seconds();
        return SolveResult::kSat;
      }
      if ((flip & 1023u) == 0 &&
          (deadline.Expired() ||
           (stop && stop->load(std::memory_order_relaxed)))) {
        stats_.solve_seconds += stopwatch.Seconds();
        return SolveResult::kUnknown;
      }
      // Pick a random unsatisfied clause.
      const std::size_t c = unsat_clauses_[rng_.NextBelow(
          unsat_clauses_.size())];
      const Clause& clause = cnf_.clauses()[c];
      Var chosen = kUndefVar;
      if (rng_.NextBool(options_.noise)) {
        chosen = clause[rng_.NextBelow(clause.size())].var();
      } else {
        // Greedy: minimum break count, ties at random.
        int best_breaks = std::numeric_limits<int>::max();
        int ties = 0;
        for (const Lit l : clause) {
          const int breaks = BreakCount(l.var());
          if (breaks < best_breaks) {
            best_breaks = breaks;
            chosen = l.var();
            ties = 1;
          } else if (breaks == best_breaks) {
            ++ties;
            if (rng_.NextBelow(static_cast<std::uint64_t>(ties)) == 0) {
              chosen = l.var();
            }
          }
        }
      }
      assert(chosen != kUndefVar);
      Flip(chosen);
      ++stats_.flips;
    }
    if (deadline.Expired() ||
        (stop && stop->load(std::memory_order_relaxed))) {
      break;
    }
  }
  stats_.solve_seconds += stopwatch.Seconds();
  return SolveResult::kUnknown;
}

}  // namespace satfr::sat
