#include "portfolio/portfolio.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "common/stopwatch.h"
#include "cube/cube_solver.h"
#include "encode/csp_to_cnf.h"
#include "encode/hierarchical.h"
#include "obs/trace.h"
#include "sat/clause_sink.h"
#include "sat/walksat.h"

namespace satfr::portfolio {

std::string Strategy::DisplayName() const {
  std::string name = encoding_name;
  name += "/";
  name += symmetry::ToString(heuristic);
  if (use_walksat) name += " (walksat)";
  if (cube_workers > 0) {
    name += " (cube x" + std::to_string(cube_workers) + ")";
  }
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

// Runs one cube-and-conquer strategy (exact SAT/UNSAT via the cube pool).
flow::DetailedRouteResult RunCubeStrategy(const graph::Graph& conflict_graph,
                                          int num_tracks,
                                          const Strategy& strategy,
                                          double timeout_seconds,
                                          const mc::Atomic<bool>* stop,
                                          const std::string& run_label) {
  cube::CubeSolveOptions options;
  options.pool.num_workers = strategy.cube_workers;
  options.solver = strategy.solver;
  options.timeout_seconds = timeout_seconds;
  options.stop = stop;
  options.run_label = run_label;
  const cube::CubeSolveResult cube_result = cube::SolveColoringWithCubes(
      conflict_graph, num_tracks,
      encode::GetEncoding(strategy.encoding_name), strategy.heuristic,
      options);

  flow::DetailedRouteResult result;
  result.status = cube_result.status;
  result.tracks = cube_result.colors;
  result.error = cube_result.error;
  result.conflict_vertices = conflict_graph.num_vertices();
  result.conflict_edges = conflict_graph.num_edges();
  result.solve_seconds = cube_result.wall_seconds;
  result.solver_stats = cube_result.solver_stats;
  result.streamed_encode = true;
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

std::vector<Strategy> DiversifiedPortfolio(int n) {
  std::vector<Strategy> strategies(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Strategy& s = strategies[static_cast<std::size_t>(i)];
    s.encoding_name = "ITE-linear-2+muldirect";
    s.heuristic = symmetry::Heuristic::kS1;
    if (i == 0) continue;  // member 0: the unmodified paper-best strategy
    s.solver = (i % 2 == 1) ? sat::SolverOptions::MiniSatLike()
                            : sat::SolverOptions::SiegeLike();
    s.solver.seed = 91648253ull +
                    0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i);
    // Diversify inprocessing, not just search: members alternate between
    // eager vivification, vivification off, and sparse-but-deep passes, so
    // at least one member keeps raw search throughput while others invest
    // in simplification and feed the stronger clauses into the exchange.
    switch (i % 3) {
      case 1:
        s.solver.vivify = true;
        s.solver.vivify_interval = 4;
        break;
      case 2:
        s.solver.vivify = false;
        break;
      case 0:
        s.solver.vivify = true;
        s.solver.vivify_interval = 16;
        s.solver.vivify_propagation_budget = 1 << 16;
        break;
    }
  }
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

  // With sharing on, register every CDCL strategy up front under its
  // numbering key (encoding + symmetry sequence), so compatibility is
  // settled before any thread starts. WalkSAT strategies learn nothing and
  // never join the exchange.
  sat::ClauseExchange exchange(options.exchange_capacity);
  std::vector<int> participants(strategies.size(), -1);
  if (options.share_clauses) {
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      // WalkSAT members learn nothing; cube members run their own internal
      // exchange (see Strategy::cube_workers).
      if (strategies[s].use_walksat || strategies[s].cube_workers > 0) {
        continue;
      }
      const auto sequence = symmetry::SymmetrySequence(
          conflict_graph, num_tracks, strategies[s].heuristic);
      const encode::DomainEncoding domain = encode::EncodeDomain(
          encode::GetEncoding(strategies[s].encoding_name), num_tracks);
      const std::uint64_t key =
          encode::NumberingKey(domain, num_tracks, sequence);
      // Unit-clause compatibility is kept as conservative as full
      // compatibility for now (same key both ways).
      participants[s] = exchange.Register(key, key);
    }
  }

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
      } else if (strategies[s].cube_workers > 0) {
        result = RunCubeStrategy(conflict_graph, num_tracks, strategies[s],
                                 timeout_seconds, &stop, options.run_label);
      } else {
        flow::DetailedRouteOptions route_options;
        route_options.encoding =
            encode::GetEncoding(strategies[s].encoding_name);
        route_options.heuristic = strategies[s].heuristic;
        route_options.solver = strategies[s].solver;
        route_options.solver.share_max_lbd = options.share_max_lbd;
        route_options.timeout_seconds = timeout_seconds;
        route_options.stop = &stop;
        route_options.run_label = options.run_label;
        if (participants[s] >= 0) {
          route_options.exchange = &exchange;
          route_options.exchange_participant = participants[s];
        }
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
  out.exchange_totals = exchange.totals();
  return out;
}

}  // namespace satfr::portfolio
