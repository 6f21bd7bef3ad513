// E6 — Reproduces the §6 portfolio experiment: portfolios of 2 and 3
// parallel strategies versus the best single strategy
// (ITE-linear-2+muldirect / s1) on the unroutable configurations.
// The paper reports 1.84x (2 strategies) and 2.30x (3 strategies)
// additional speedup on an (otherwise idle) multicore CPU; on a machine
// with fewer cores the threads time-slice and the measured gain shrinks
// accordingly — the bench prints the hardware parallelism so results can
// be read in context. Members race independently; they share no clauses.
// Every cell sits below W*, so its only valid answers are UNSAT and a
// timeout; any other verdict prints the cell and exits 1.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "flow/detailed_router.h"
#include "portfolio/portfolio.h"

namespace {

// Prints a W*-1 cell whose verdict is not UNSAT; returns the exit code.
int WrongVerdict(const std::string& name, int width, const char* cell,
                 satfr::sat::SolveResult status) {
  std::printf("\n%s W=%d %s: %s, expected UNSAT\n", name.c_str(), width,
              cell, satfr::sat::ToString(status));
  return 1;
}

}  // namespace

int main() {
  using namespace satfr;
  const double timeout = bench::BenchTimeoutSeconds();

  std::printf(
      "== Portfolios on unroutable configurations (W = W*-1) ==\n"
      "   hardware threads available: %u\n\n",
      std::thread::hardware_concurrency());
  std::printf("%-12s  %14s  %14s  %14s\n", "benchmark", "best single",
              "portfolio-2", "portfolio-3");

  double total_single = 0.0;
  double total_p2 = 0.0;
  double total_p3 = 0.0;
  for (const std::string& name : bench::BenchInstanceNames()) {
    const bench::Instance inst = bench::LoadInstance(name);
    const int width = inst.min_width - 1;
    std::printf("%-12s", inst.name.c_str());
    if (width < 1) {
      std::printf("  (W*=1: skipped)\n");
      continue;
    }

    flow::DetailedRouteOptions single;
    single.encoding = encode::GetEncoding("ITE-linear-2+muldirect");
    single.heuristic = symmetry::Heuristic::kS1;
    single.timeout_seconds = timeout;
    const auto single_result =
        flow::RouteDetailedOnGraph(inst.conflict, width, single);
    if (single_result.status == sat::SolveResult::kSat) {
      return WrongVerdict(inst.name, width, "best single",
                          single_result.status);
    }
    const bool single_timeout =
        single_result.status == sat::SolveResult::kUnknown;
    const double single_seconds =
        single_timeout ? timeout : single_result.TotalSeconds();
    total_single += single_seconds;
    std::printf("  %14s",
                bench::TimeCell(single_seconds, single_timeout).c_str());
    std::fflush(stdout);

    for (const bool three : {false, true}) {
      const auto strategies = three ? portfolio::PaperPortfolio3()
                                    : portfolio::PaperPortfolio2();
      const portfolio::PortfolioResult result =
          portfolio::RunPortfolio(inst.conflict, width, strategies, timeout);
      const bool timed_out = result.winner < 0;
      if (!timed_out && result.result.status != sat::SolveResult::kUnsat) {
        return WrongVerdict(inst.name, width,
                            three ? "portfolio-3" : "portfolio-2",
                            result.result.status);
      }
      const double seconds = timed_out ? timeout : result.wall_seconds;
      (three ? total_p3 : total_p2) += seconds;
      std::printf("  %14s", bench::TimeCell(seconds, timed_out).c_str());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("%-12s  %14s  %14s  %14s\n", "Total",
              FormatSecondsPaperStyle(total_single).c_str(),
              FormatSecondsPaperStyle(total_p2).c_str(),
              FormatSecondsPaperStyle(total_p3).c_str());
  if (total_p2 > 0.0 && total_p3 > 0.0) {
    std::printf("speedup vs best single: portfolio-2 %.2fx, portfolio-3 "
                "%.2fx\n",
                total_single / total_p2, total_single / total_p3);
  }
  std::printf(
      "\nPaper reference (dual-core testbed): portfolio-2 1.84x, "
      "portfolio-3 2.30x vs the best\nsingle strategy.\n");
  return 0;
}
