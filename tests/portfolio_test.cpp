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

TEST(PortfolioTest, FindsUnsatAnswer) {
  Rng rng(222);
  const graph::Graph g = testutil::RandomGraph(rng, 10, 0.5);
  const int chi = graph::ChromaticNumberExact(g);
  ASSERT_GE(chi, 2);
  const PortfolioResult result =
      RunPortfolio(g, chi - 1, PaperPortfolio2());
  ASSERT_GE(result.winner, 0);
  EXPECT_EQ(result.result.status, sat::SolveResult::kUnsat);
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

TEST(PortfolioTest, WalkSatStrategyWinsSatRaces) {
  Rng rng(555);
  const graph::Graph g = testutil::RandomGraph(rng, 15, 0.3);
  const int width = graph::NumColorsUsed(graph::DsaturColoring(g));
  std::vector<Strategy> strategies(2);
  strategies[0].encoding_name = "muldirect";
  strategies[0].heuristic = symmetry::Heuristic::kS1;
  strategies[0].use_walksat = true;
  strategies[1].encoding_name = "ITE-linear-2+muldirect";
  strategies[1].heuristic = symmetry::Heuristic::kS1;
  const PortfolioResult result = RunPortfolio(g, width, strategies, 30.0);
  ASSERT_GE(result.winner, 0);
  EXPECT_EQ(result.result.status, sat::SolveResult::kSat);
  EXPECT_TRUE(g.IsProperColoring(result.result.tracks, width));
  EXPECT_NE(strategies[0].DisplayName().find("walksat"),
            std::string::npos);
}

TEST(PortfolioTest, WalkSatNeverWinsUnsatRaces) {
  Rng rng(556);
  const graph::Graph g = testutil::RandomGraph(rng, 10, 0.5);
  const int chi = graph::ChromaticNumberExact(g);
  ASSERT_GE(chi, 2);
  std::vector<Strategy> strategies(2);
  strategies[0].encoding_name = "muldirect";
  strategies[0].heuristic = symmetry::Heuristic::kS1;
  strategies[0].use_walksat = true;  // cannot answer UNSAT
  strategies[1].encoding_name = "ITE-linear-2+muldirect";
  strategies[1].heuristic = symmetry::Heuristic::kS1;
  const PortfolioResult result =
      RunPortfolio(g, chi - 1, strategies, 60.0);
  ASSERT_EQ(result.winner, 1);  // the CDCL member must deliver the proof
  EXPECT_EQ(result.result.status, sat::SolveResult::kUnsat);
}

TEST(PortfolioTest, DiversifiedPortfolioIsWellFormed) {
  const auto strategies = DiversifiedPortfolio(4);
  ASSERT_EQ(strategies.size(), 4u);
  const sat::SolverOptions defaults = sat::SolverOptions::SiegeLike();
  EXPECT_EQ(strategies[0].solver.seed, defaults.seed);
  for (const Strategy& s : strategies) {
    EXPECT_EQ(s.encoding_name, "ITE-linear-2+muldirect");
    EXPECT_EQ(s.heuristic, symmetry::Heuristic::kS1);
    EXPECT_FALSE(s.use_walksat);
  }
  // Diversified members must differ from each other in seed.
  for (std::size_t i = 1; i < strategies.size(); ++i) {
    for (std::size_t j = i + 1; j < strategies.size(); ++j) {
      EXPECT_NE(strategies[i].solver.seed, strategies[j].solver.seed);
    }
  }
}

TEST(PortfolioTest, SharingNeverChangesAnswers) {
  // The soundness property of the clause exchange: on the same instance, a
  // sharing portfolio must reach the same SAT/UNSAT verdict as a
  // non-sharing one. Random graphs on both sides of the threshold.
  Rng rng(20260806);
  for (int round = 0; round < 12; ++round) {
    const graph::Graph g =
        testutil::RandomGraph(rng, 14, /*edge_probability=*/0.45);
    const int k = 3 + static_cast<int>(rng.NextBelow(3));
    PortfolioOptions sharing;
    sharing.share_clauses = true;
    const PortfolioResult with = RunPortfolio(
        g, k, DiversifiedPortfolio(3), /*timeout_seconds=*/0.0, sharing);
    const PortfolioResult without =
        RunPortfolio(g, k, DiversifiedPortfolio(3));
    ASSERT_GE(with.winner, 0);
    ASSERT_GE(without.winner, 0);
    EXPECT_EQ(with.result.status, without.result.status)
        << "round " << round << " K=" << k;
  }
}

TEST(PortfolioTest, SharingReportsExchangeTraffic) {
  // K_13 with 12 colors under s1 symmetry breaking: UNSAT with real search,
  // so the members have learnts to trade.
  graph::Graph g(13);
  for (graph::VertexId u = 0; u < 13; ++u) {
    for (graph::VertexId v = u + 1; v < 13; ++v) g.AddEdge(u, v);
  }
  PortfolioOptions sharing;
  sharing.share_clauses = true;
  const PortfolioResult result = RunPortfolio(
      g, 12, DiversifiedPortfolio(3), /*timeout_seconds=*/0.0, sharing);
  ASSERT_GE(result.winner, 0);
  EXPECT_EQ(result.result.status, sat::SolveResult::kUnsat);
  ASSERT_EQ(result.strategy_stats.size(), 3u);
  std::uint64_t exported = 0;
  for (const sat::SolverStats& stats : result.strategy_stats) {
    exported += stats.exported_clauses;
  }
  EXPECT_GT(exported, 0u);
  EXPECT_GT(result.exchange_totals.published, 0u);
}

TEST(PortfolioTest, CubeMemberWinsRacesWithExactVerdicts) {
  // A portfolio whose cube member is the only complete strategy on both
  // sides: it must deliver SAT at the DSATUR width and UNSAT below the
  // clique bound, with the model validated by the portfolio's winner path.
  Rng rng(555);
  const graph::Graph g = testutil::RandomGraph(rng, 12, 0.4);
  const int chi = graph::ChromaticNumberExact(g);
  std::vector<Strategy> strategies(1);
  strategies[0].encoding_name = "ITE-linear-2+muldirect";
  strategies[0].heuristic = symmetry::Heuristic::kS1;
  strategies[0].cube_workers = 2;
  EXPECT_NE(strategies[0].DisplayName().find("cube x2"), std::string::npos);

  const PortfolioResult sat_side = RunPortfolio(g, chi, strategies);
  ASSERT_EQ(sat_side.winner, 0);
  EXPECT_EQ(sat_side.result.status, sat::SolveResult::kSat);
  EXPECT_TRUE(g.IsProperColoring(sat_side.result.tracks, chi));
  if (chi > 1) {
    const PortfolioResult unsat_side = RunPortfolio(g, chi - 1, strategies);
    ASSERT_EQ(unsat_side.winner, 0);
    EXPECT_EQ(unsat_side.result.status, sat::SolveResult::kUnsat);
  }
}

TEST(PortfolioTest, CubeMemberAlongsideCdclAndWalksat) {
  // Mixed portfolio: CDCL + WalkSAT + cube racing the same SAT instance.
  Rng rng(666);
  const graph::Graph g = testutil::RandomGraph(rng, 12, 0.35);
  const int width = graph::NumColorsUsed(graph::DsaturColoring(g));
  std::vector<Strategy> strategies(3);
  strategies[0].encoding_name = "ITE-linear-2+muldirect";
  strategies[0].heuristic = symmetry::Heuristic::kS1;
  strategies[1] = strategies[0];
  strategies[1].use_walksat = true;
  strategies[2] = strategies[0];
  strategies[2].cube_workers = 2;
  const PortfolioResult result = RunPortfolio(g, width, strategies);
  ASSERT_GE(result.winner, 0);
  EXPECT_EQ(result.result.status, sat::SolveResult::kSat);
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
