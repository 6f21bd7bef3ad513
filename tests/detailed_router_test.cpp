// End-to-end detailed-routing tests: netlist -> global route -> SAT ->
// validated track assignment, across encodings and solver presets.
#include <gtest/gtest.h>

#include "encode/registry.h"
#include "flow/conflict_graph.h"
#include "graph/coloring_bounds.h"
#include "flow/detailed_router.h"
#include "flow/track_checker.h"
#include "netlist/mcnc_suite.h"
#include "route/global_router.h"

namespace satfr::flow {
namespace {

using fpga::Arch;
using fpga::DeviceGraph;

struct RoutedBenchmark {
  netlist::McncBenchmark bench;
  Arch arch;
  route::GlobalRouting routing;
  int peak = 0;

  explicit RoutedBenchmark(const std::string& name)
      : bench(netlist::GenerateMcncBenchmark(name)),
        arch(bench.params.grid_size) {
    const DeviceGraph device(arch);
    routing = route::RouteGlobally(device, bench.netlist, bench.placement);
    peak = route::PeakCongestion(arch, routing);
  }
};

const RoutedBenchmark& Tiny() {
  static const RoutedBenchmark* const kTiny = new RoutedBenchmark("tiny");
  return *kTiny;
}

const RoutedBenchmark& NineSymml() {
  static const RoutedBenchmark* const kBench =
      new RoutedBenchmark("9symml");
  return *kBench;
}

TEST(DetailedRouterTest, OnGraphAnswersCarryNoErrorAndCheckedTracks) {
  graph::Graph k4(4);
  for (graph::VertexId u = 0; u < 4; ++u) {
    for (graph::VertexId v = u + 1; v < 4; ++v) k4.AddEdge(u, v);
  }
  const DetailedRouteResult sat_side = RouteDetailedOnGraph(k4, 4);
  ASSERT_EQ(sat_side.status, sat::SolveResult::kSat);
  EXPECT_TRUE(sat_side.error.empty()) << sat_side.error;
  EXPECT_TRUE(k4.IsProperColoring(sat_side.tracks, 4));
  const DetailedRouteResult unsat_side = RouteDetailedOnGraph(k4, 3);
  EXPECT_EQ(unsat_side.status, sat::SolveResult::kUnsat);
  EXPECT_TRUE(unsat_side.error.empty()) << unsat_side.error;
  EXPECT_TRUE(unsat_side.tracks.empty());
}

TEST(DetailedRouterTest, SatAtGenerousWidthAndTracksValidate) {
  const RoutedBenchmark& rb = Tiny();
  const graph::Graph conflict = BuildConflictGraph(rb.arch, rb.routing);
  const int width = static_cast<int>(conflict.MaxDegree()) + 1;
  DetailedRouteOptions options;
  const DetailedRouteResult result =
      RouteDetailed(rb.arch, rb.routing, width, options);
  ASSERT_EQ(result.status, sat::SolveResult::kSat);
  std::string error;
  EXPECT_TRUE(ValidateTrackAssignment(rb.arch, rb.routing, result.tracks,
                                      width, &error))
      << error;
  EXPECT_GT(result.cnf_vars, 0);
  EXPECT_GT(result.cnf_clauses, 0u);
  EXPECT_EQ(result.conflict_vertices, conflict.num_vertices());
  EXPECT_EQ(result.conflict_edges, conflict.num_edges());
}

TEST(DetailedRouterTest, UnsatBelowCongestionBound) {
  const RoutedBenchmark& rb = Tiny();
  ASSERT_GE(rb.peak, 2) << "fixture must have congestion to be meaningful";
  DetailedRouteOptions options;
  const DetailedRouteResult result =
      RouteDetailed(rb.arch, rb.routing, rb.peak - 1, options);
  EXPECT_EQ(result.status, sat::SolveResult::kUnsat);
  EXPECT_TRUE(result.tracks.empty());
}

TEST(DetailedRouterTest, TimeBreakdownIsPopulated) {
  const RoutedBenchmark& rb = Tiny();
  const DetailedRouteResult result =
      RouteDetailed(rb.arch, rb.routing, rb.peak + 2);
  EXPECT_GE(result.coloring_seconds, 0.0);
  EXPECT_GE(result.encode_seconds, 0.0);
  EXPECT_GE(result.solve_seconds, 0.0);
  EXPECT_NEAR(result.TotalSeconds(),
              result.coloring_seconds + result.encode_seconds +
                  result.solve_seconds,
              1e-12);
}

// Every encoding and both heuristics must agree on SAT/UNSAT for the same
// instance — the cross-encoding equisatisfiability invariant of DESIGN.md.
class EncodingAgreementTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EncodingAgreementTest, AgreesOnRoutableAndUnroutable) {
  const RoutedBenchmark& rb = NineSymml();
  const graph::Graph conflict = BuildConflictGraph(rb.arch, rb.routing);
  // DSATUR gives a width that is guaranteed routable; peak congestion - 1
  // is guaranteed unroutable (clique bound).
  const int routable_width =
      graph::NumColorsUsed(graph::DsaturColoring(conflict));
  DetailedRouteOptions options;
  options.encoding = encode::GetEncoding(GetParam());
  options.timeout_seconds = 60.0;
  for (const symmetry::Heuristic h :
       {symmetry::Heuristic::kNone, symmetry::Heuristic::kB1,
        symmetry::Heuristic::kS1}) {
    options.heuristic = h;
    const DetailedRouteResult routable =
        RouteDetailedOnGraph(conflict, routable_width, options);
    EXPECT_EQ(routable.status, sat::SolveResult::kSat)
        << GetParam() << "/" << symmetry::ToString(h);
    const DetailedRouteResult unroutable =
        RouteDetailedOnGraph(conflict, rb.peak - 1, options);
    EXPECT_EQ(unroutable.status, sat::SolveResult::kUnsat)
        << GetParam() << "/" << symmetry::ToString(h);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, EncodingAgreementTest,
    ::testing::ValuesIn(encode::AllEncodingNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

TEST(DetailedRouterTest, BothSolverPresetsAgree) {
  const RoutedBenchmark& rb = Tiny();
  const graph::Graph conflict = BuildConflictGraph(rb.arch, rb.routing);
  const int routable_width =
      graph::NumColorsUsed(graph::DsaturColoring(conflict));
  for (const bool siege : {true, false}) {
    DetailedRouteOptions options;
    options.solver = siege ? sat::SolverOptions::SiegeLike()
                           : sat::SolverOptions::MiniSatLike();
    const DetailedRouteResult sat_result =
        RouteDetailed(rb.arch, rb.routing, routable_width, options);
    EXPECT_EQ(sat_result.status, sat::SolveResult::kSat);
    if (rb.peak >= 2) {
      const DetailedRouteResult unsat_result =
          RouteDetailed(rb.arch, rb.routing, rb.peak - 1, options);
      EXPECT_EQ(unsat_result.status, sat::SolveResult::kUnsat);
    }
  }
}

TEST(DetailedRouterTest, UnsatProofVerifies) {
  const RoutedBenchmark& rb = Tiny();
  ASSERT_GE(rb.peak, 2);
  DetailedRouteOptions options;
  options.verify_unsat_proof = true;
  const DetailedRouteResult result =
      RouteDetailed(rb.arch, rb.routing, rb.peak - 1, options);
  ASSERT_EQ(result.status, sat::SolveResult::kUnsat);
  EXPECT_TRUE(result.proof_verified);
}

TEST(DetailedRouterTest, ProofFieldsUntouchedWithoutFlag) {
  const RoutedBenchmark& rb = Tiny();
  const DetailedRouteResult result =
      RouteDetailed(rb.arch, rb.routing, rb.peak - 1);
  EXPECT_FALSE(result.proof_verified);
  EXPECT_EQ(result.proof_clauses, 0u);
}

TEST(DetailedRouterTest, DefaultPathStreamsEncoderIntoSolver) {
  const RoutedBenchmark& rb = Tiny();
  const DetailedRouteResult result =
      RouteDetailed(rb.arch, rb.routing, rb.peak + 1);
  EXPECT_NE(result.status, sat::SolveResult::kUnknown);
  EXPECT_TRUE(result.streamed_encode);
  EXPECT_EQ(result.encode_stats.TotalEmitted(), result.cnf_clauses);
}

TEST(DetailedRouterTest, SelfcheckAndProofVerificationMaterialize) {
  const RoutedBenchmark& rb = Tiny();
  DetailedRouteOptions options;
  options.selfcheck = true;
  const DetailedRouteResult checked =
      RouteDetailed(rb.arch, rb.routing, rb.peak + 1, options);
  EXPECT_NE(checked.status, sat::SolveResult::kUnknown);
  EXPECT_FALSE(checked.streamed_encode);

  ASSERT_GE(rb.peak, 2);
  DetailedRouteOptions proof_options;
  proof_options.verify_unsat_proof = true;
  const DetailedRouteResult proved =
      RouteDetailed(rb.arch, rb.routing, rb.peak - 1, proof_options);
  ASSERT_EQ(proved.status, sat::SolveResult::kUnsat);
  EXPECT_FALSE(proved.streamed_encode);
}

TEST(DetailedRouterTest, ZeroTimeoutMeansUnlimited) {
  const RoutedBenchmark& rb = Tiny();
  DetailedRouteOptions options;
  options.timeout_seconds = 0.0;
  const DetailedRouteResult result =
      RouteDetailed(rb.arch, rb.routing, rb.peak + 1, options);
  EXPECT_NE(result.status, sat::SolveResult::kUnknown);
}

}  // namespace
}  // namespace satfr::flow
