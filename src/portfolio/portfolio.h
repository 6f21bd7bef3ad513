// Parallel strategy portfolios (§6 of the paper).
//
// A strategy is (encoding, symmetry heuristic, solver preset). A portfolio
// runs several strategies on the same instance on different threads; the
// first to finish wins and the rest are cancelled through the solver's
// cooperative stop flag. The paper reports 1.84x / 2.30x additional speedup
// from 2- and 3-strategy portfolios over the best single strategy.
#pragma once

#include <string>
#include <vector>

#include "flow/detailed_router.h"

namespace satfr::portfolio {

struct Strategy {
  std::string encoding_name;
  symmetry::Heuristic heuristic = symmetry::Heuristic::kNone;
  sat::SolverOptions solver = sat::SolverOptions::SiegeLike();

  /// "encoding/heuristic" label for tables.
  std::string DisplayName() const;
};

/// The paper's 2-strategy portfolio: {ITE-linear-2+muldirect/s1,
/// muldirect-3+muldirect/s1}.
std::vector<Strategy> PaperPortfolio2();

/// The paper's 3-strategy portfolio: PaperPortfolio2 plus
/// ITE-linear-2+direct/s1.
std::vector<Strategy> PaperPortfolio3();

struct PortfolioOptions {
  /// Telemetry label (trace spans / run-report records); empty is fine.
  std::string run_label;
};

struct PortfolioResult {
  /// Index of the winning strategy in the input vector; -1 if every
  /// strategy timed out.
  int winner = -1;
  /// The winner's result (status kUnknown when winner == -1).
  flow::DetailedRouteResult result;
  /// Wall-clock time until the first answer arrived.
  double wall_seconds = 0.0;
  /// Per-strategy status, for reporting.
  std::vector<sat::SolveResult> statuses;
  /// Per-strategy solver stats.
  std::vector<sat::SolverStats> strategy_stats;
};

/// Runs all strategies in parallel on the K-coloring of `conflict_graph`.
/// `timeout_seconds` <= 0 means unlimited.
PortfolioResult RunPortfolio(const graph::Graph& conflict_graph,
                             int num_tracks,
                             const std::vector<Strategy>& strategies,
                             double timeout_seconds = 0.0,
                             const PortfolioOptions& options = {});

}  // namespace satfr::portfolio
