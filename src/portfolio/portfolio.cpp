#include "portfolio/portfolio.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "common/stopwatch.h"
#include "encode/csp_to_cnf.h"
#include "obs/trace.h"
#include "sat/clause_sink.h"
#include "sat/walksat.h"

namespace satfr::portfolio {

std::string Strategy::DisplayName() const {
  std::string name = encoding_name;
  name += "/";
  name += symmetry::ToString(heuristic);
  if (use_walksat) name += " (walksat)";
  return name;
}

namespace {

// Runs one WalkSAT strategy on the encoded instance (SAT-or-give-up).
flow::DetailedRouteResult RunWalkSatStrategy(
    const graph::Graph& conflict_graph, int num_tracks,
    const Strategy& strategy, double timeout_seconds,
    const mc::Atomic<bool>* stop) {
  flow::DetailedRouteResult result;
  Stopwatch watch;
  const auto sequence = symmetry::SymmetrySequence(
      conflict_graph, num_tracks, strategy.heuristic);
  // WalkSAT flips against the clause list in place, so this is the one
  // strategy that still needs the formula materialized: collect the stream
  // into a Cnf explicitly.
  sat::Cnf cnf;
  sat::CnfCollectorSink collector(cnf);
  const encode::ColoringLayout layout = encode::EncodeColoringToSink(
      conflict_graph, num_tracks,
      encode::GetEncoding(strategy.encoding_name), sequence, collector);
  collector.Finish();
  result.conflict_vertices = conflict_graph.num_vertices();
  result.conflict_edges = conflict_graph.num_edges();
  result.cnf_vars = cnf.num_vars();
  result.cnf_clauses = cnf.num_clauses();
  result.encode_stats = layout.stats;
  result.encode_seconds = watch.Seconds();

  Stopwatch solve_watch;
  sat::WalkSat walksat(cnf);
  const Deadline deadline = Deadline::FromTimeout(timeout_seconds);
  result.status = walksat.Solve(deadline, stop);
  result.solve_seconds = solve_watch.Seconds();
  if (result.status == sat::SolveResult::kSat) {
    result.error = encode::DecodeProperColoring(
        conflict_graph, layout, walksat.model(), num_tracks, &result.tracks);
    if (!result.error.empty()) result.status = sat::SolveResult::kUnknown;
  }
  return result;
}

}  // namespace

std::vector<Strategy> PaperPortfolio2() {
  std::vector<Strategy> strategies(2);
  strategies[0].encoding_name = "ITE-linear-2+muldirect";
  strategies[0].heuristic = symmetry::Heuristic::kS1;
  strategies[1].encoding_name = "muldirect-3+muldirect";
  strategies[1].heuristic = symmetry::Heuristic::kS1;
  return strategies;
}

std::vector<Strategy> PaperPortfolio3() {
  std::vector<Strategy> strategies = PaperPortfolio2();
  Strategy third;
  third.encoding_name = "ITE-linear-2+direct";
  third.heuristic = symmetry::Heuristic::kS1;
  strategies.push_back(third);
  return strategies;
}

PortfolioResult RunPortfolio(const graph::Graph& conflict_graph,
                             int num_tracks,
                             const std::vector<Strategy>& strategies,
                             double timeout_seconds,
                             const PortfolioOptions& options) {
  PortfolioResult out;
  out.statuses.assign(strategies.size(), sat::SolveResult::kUnknown);
  out.strategy_stats.assign(strategies.size(), sat::SolverStats{});
  if (strategies.empty()) return out;

  Stopwatch stopwatch;
  mc::Atomic<bool> stop{false};
  mc::Mutex winner_mutex;
  std::vector<std::thread> threads;
  threads.reserve(strategies.size());

  for (std::size_t s = 0; s < strategies.size(); ++s) {
    threads.emplace_back([&, s] {
      // Each strategy traces onto its own (OS-thread) track, named after
      // the strategy so the Perfetto timeline reads "which member won".
      obs::TraceWriter* const trace = obs::GlobalTrace();
      if (trace != nullptr) {
        trace->SetThreadName(obs::TraceWriter::CurrentTid(),
                             "strategy " + std::to_string(s) + ": " +
                                 strategies[s].DisplayName());
      }
      obs::TraceSpan strategy_span(trace, strategies[s].DisplayName(),
                                   "portfolio");
      flow::DetailedRouteResult result;
      if (strategies[s].use_walksat) {
        result = RunWalkSatStrategy(conflict_graph, num_tracks,
                                    strategies[s], timeout_seconds, &stop);
      } else {
        flow::DetailedRouteOptions route_options;
        route_options.encoding =
            encode::GetEncoding(strategies[s].encoding_name);
        route_options.heuristic = strategies[s].heuristic;
        route_options.solver = strategies[s].solver;
        route_options.timeout_seconds = timeout_seconds;
        route_options.stop = &stop;
        route_options.run_label = options.run_label;
        result = flow::RouteDetailedOnGraph(conflict_graph, num_tracks,
                                            route_options);
      }
      strategy_span.AddArg("verdict",
                           obs::JsonValue(sat::ToString(result.status)));
      strategy_span.End();
      mc::MutexLock lock(winner_mutex);
      out.statuses[s] = result.status;
      out.strategy_stats[s] = result.solver_stats;
      if (result.status != sat::SolveResult::kUnknown && out.winner == -1) {
        out.winner = static_cast<int>(s);
        out.result = std::move(result);
        out.wall_seconds = stopwatch.Seconds();
        stop.store(true);  // cancel the other strategies
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (out.winner == -1) out.wall_seconds = stopwatch.Seconds();
  return out;
}

}  // namespace satfr::portfolio
