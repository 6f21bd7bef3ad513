#include "portfolio/portfolio.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "common/stopwatch.h"
#include "encode/registry.h"
#include "obs/trace.h"

namespace satfr::portfolio {

std::string Strategy::DisplayName() const {
  std::string name = encoding_name;
  name += "/";
  name += symmetry::ToString(heuristic);
  return name;
}

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
  std::atomic<bool> stop{false};
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
      flow::DetailedRouteOptions route_options;
      route_options.encoding =
          encode::GetEncoding(strategies[s].encoding_name);
      route_options.heuristic = strategies[s].heuristic;
      route_options.solver = strategies[s].solver;
      route_options.timeout_seconds = timeout_seconds;
      route_options.stop = &stop;
      route_options.run_label = options.run_label;
      flow::DetailedRouteResult result = flow::RouteDetailedOnGraph(
          conflict_graph, num_tracks, route_options);
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
