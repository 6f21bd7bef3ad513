#include "analysis/solver_passes.h"

#include <algorithm>
#include <memory>
#include <string>

#include "sat/solver.h"

namespace satfr::analysis {
namespace {

// Bounded wall-clock budget for the stress solve. The pass is a lint, not
// a benchmark: a fraction of a second under a 1 KiB GC threshold already
// forces dozens of collections and several vivification rounds on any
// instance large enough to have interesting database dynamics.
constexpr double kStressSolveSeconds = 0.25;

class SolverInvariantsPass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "solver-invariants"; }
  std::string_view description() const override {
    return "solver arena/watcher/trail invariants hold after a GC-heavy "
           "bounded solve";
  }
  // Solver::AddClause requires every literal in range.
  bool Applicable(const AnalysisInput& input) const override {
    if (input.cnf == nullptr) return false;
    const auto& clauses = input.cnf->clauses();
    return std::all_of(clauses.begin(), clauses.end(),
                       [&input](const sat::Clause& clause) {
                         return ClauseInRange(clause, input.cnf->num_vars());
                       });
  }
  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    sat::SolverOptions options;
    // Hostile database settings: collect the arena as often as legal and
    // vivify at every restart, so relocation bugs surface.
    options.gc_min_arena_words = 1u << 8;
    options.vivify_interval = 1;
    options.restart_base = 32;

    sat::Solver solver(options);
    std::string error;
    if (!solver.AddCnf(*input.cnf)) {
      // Refuted while loading: the empty database trivially satisfies the
      // invariants, but run the audit anyway — it is cheap and the load
      // path also touches the binary layer.
      if (!solver.CheckInvariants(&error)) {
        sink.Report("solver", "solver invariant violated: " + error);
      }
      return;
    }
    (void)solver.Solve(Deadline::After(kStressSolveSeconds));
    if (!solver.CheckInvariants(&error)) {
      sink.Report("solver", "solver invariant violated: " + error);
    }
  }
};

}  // namespace

void AddSolverPasses(AnalysisRunner& runner) {
  runner.AddPass(std::make_unique<SolverInvariantsPass>());
}

}  // namespace satfr::analysis
