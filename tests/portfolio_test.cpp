#include <gtest/gtest.h>

#include "flow/conflict_graph.h"
#include "graph/coloring_bounds.h"
#include "netlist/mcnc_suite.h"
#include "portfolio/portfolio.h"
#include "route/global_router.h"
#include "test_util.h"

namespace satfr::portfolio {
namespace {

TEST(PortfolioTest, PaperPortfoliosAreWellFormed) {
  const auto two = PaperPortfolio2();
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].encoding_name, "ITE-linear-2+muldirect");
  EXPECT_EQ(two[0].heuristic, symmetry::Heuristic::kS1);
  EXPECT_EQ(two[1].encoding_name, "muldirect-3+muldirect");
  const auto three = PaperPortfolio3();
  ASSERT_EQ(three.size(), 3u);
  EXPECT_EQ(three[2].encoding_name, "ITE-linear-2+direct");
  EXPECT_EQ(three[2].DisplayName(), "ITE-linear-2+direct/s1");
}

TEST(PortfolioTest, EmptyPortfolioReturnsNoWinner) {
  const graph::Graph g(3);
  const PortfolioResult result = RunPortfolio(g, 2, {});
  EXPECT_EQ(result.winner, -1);
}

TEST(PortfolioTest, FindsSatAnswer) {
  Rng rng(111);
  const graph::Graph g = testutil::RandomGraph(rng, 12, 0.35);
  const int width = graph::NumColorsUsed(graph::DsaturColoring(g));
  const PortfolioResult result = RunPortfolio(g, width, PaperPortfolio3());
  ASSERT_GE(result.winner, 0);
  ASSERT_LT(result.winner, 3);
  EXPECT_EQ(result.result.status, sat::SolveResult::kSat);
  EXPECT_TRUE(g.IsProperColoring(result.result.tracks, width));
  EXPECT_EQ(result.statuses.size(), 3u);
  EXPECT_EQ(result.statuses[static_cast<std::size_t>(result.winner)],
            sat::SolveResult::kSat);
}

TEST(PortfolioTest, AnswersMatchChromaticNumber) {
  // Whichever member wins, the verdict is the exact one: UNSAT at chi - 1,
  // a proper coloring at chi. Random graphs on both sides of the threshold.
  Rng rng(222);
  for (int round = 0; round < 12; ++round) {
    const graph::Graph g =
        testutil::RandomGraph(rng, 14, /*edge_probability=*/0.45);
    const int chi = graph::ChromaticNumberExact(g);
    ASSERT_GE(chi, 2);
    for (const bool three : {false, true}) {
      const auto strategies = three ? PaperPortfolio3() : PaperPortfolio2();
      const PortfolioResult unsat = RunPortfolio(g, chi - 1, strategies);
      ASSERT_GE(unsat.winner, 0);
      EXPECT_EQ(unsat.result.status, sat::SolveResult::kUnsat)
          << "round " << round << " chi=" << chi << " three=" << three;
      const PortfolioResult sat_side = RunPortfolio(g, chi, strategies);
      ASSERT_GE(sat_side.winner, 0);
      EXPECT_EQ(sat_side.result.status, sat::SolveResult::kSat)
          << "round " << round << " chi=" << chi << " three=" << three;
      EXPECT_TRUE(g.IsProperColoring(sat_side.result.tracks, chi));
    }
  }
}

TEST(PortfolioTest, AgreesWithSingleStrategy) {
  const netlist::McncBenchmark bench =
      netlist::GenerateMcncBenchmark("9symml");
  const fpga::Arch arch(bench.params.grid_size);
  const fpga::DeviceGraph device(arch);
  const route::GlobalRouting routing =
      route::RouteGlobally(device, bench.netlist, bench.placement);
  const graph::Graph conflict = flow::BuildConflictGraph(arch, routing);
  const int peak = route::PeakCongestion(arch, routing);

  // Single strategy on the unroutable width.
  flow::DetailedRouteOptions single;
  single.encoding = encode::GetEncoding("ITE-linear-2+muldirect");
  single.heuristic = symmetry::Heuristic::kS1;
  const auto single_result =
      flow::RouteDetailedOnGraph(conflict, peak - 1, single);
  ASSERT_EQ(single_result.status, sat::SolveResult::kUnsat);

  const PortfolioResult portfolio =
      RunPortfolio(conflict, peak - 1, PaperPortfolio3());
  ASSERT_GE(portfolio.winner, 0);
  EXPECT_EQ(portfolio.result.status, sat::SolveResult::kUnsat);
}

TEST(PortfolioTest, TimeoutYieldsNoWinner) {
  // Coloring K_13 with 12 colors is the pigeonhole principle: hard UNSAT,
  // and — without symmetry breaking — undecidable by level-0 propagation,
  // so no strategy can sneak an answer in before the ~zero deadline.
  graph::Graph g(13);
  for (graph::VertexId u = 0; u < 13; ++u) {
    for (graph::VertexId v = u + 1; v < 13; ++v) g.AddEdge(u, v);
  }
  std::vector<Strategy> strategies(2);
  strategies[0].encoding_name = "direct";
  strategies[0].heuristic = symmetry::Heuristic::kNone;
  strategies[1].encoding_name = "muldirect";
  strategies[1].heuristic = symmetry::Heuristic::kNone;
  const PortfolioResult result =
      RunPortfolio(g, 12, strategies, /*timeout_seconds=*/1e-6);
  EXPECT_EQ(result.winner, -1);
  EXPECT_EQ(result.result.status, sat::SolveResult::kUnknown);
  for (const auto status : result.statuses) {
    EXPECT_EQ(status, sat::SolveResult::kUnknown);
  }
}

TEST(PortfolioTest, LosersAreCancelledQuickly) {
  // One fast strategy and the rest on a hard instance: wall time must be
  // close to the fast strategy's, far under any hard-solve time.
  Rng rng(444);
  const graph::Graph g = testutil::RandomGraph(rng, 14, 0.4);
  const int width = graph::NumColorsUsed(graph::DsaturColoring(g));
  const PortfolioResult result = RunPortfolio(g, width, PaperPortfolio3());
  ASSERT_GE(result.winner, 0);
  EXPECT_LT(result.wall_seconds, 30.0);
}

}  // namespace
}  // namespace satfr::portfolio
