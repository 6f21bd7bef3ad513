// Whole-pipeline integration tests: benchmark generation -> global routing
// -> DIMACS artifacts -> encodings -> SAT -> validated detailed routing,
// mirroring the paper's tool flow end to end.
#include <gtest/gtest.h>

#include <sstream>

#include "encode/registry.h"
#include "flow/conflict_graph.h"
#include "flow/min_width.h"
#include "flow/track_checker.h"
#include "graph/coloring_bounds.h"
#include "graph/dimacs_col.h"
#include "common/rng.h"
#include "netlist/mcnc_suite.h"
#include "netlist/netlist_io.h"
#include "route/greedy_track_assigner.h"
#include "route/global_router.h"
#include "route/routing_io.h"
#include "sat/dimacs.h"

namespace satfr {
namespace {

using fpga::Arch;
using fpga::DeviceGraph;

struct PipelineFixture {
  netlist::McncBenchmark bench;
  Arch arch;
  route::GlobalRouting routing;
  graph::Graph conflict;
  int peak;

  explicit PipelineFixture(const std::string& name)
      : bench(netlist::GenerateMcncBenchmark(name)),
        arch(bench.params.grid_size) {
    const DeviceGraph device(arch);
    routing = route::RouteGlobally(device, bench.netlist, bench.placement);
    conflict = flow::BuildConflictGraph(arch, routing);
    peak = route::PeakCongestion(arch, routing);
  }
};

TEST(IntegrationTest, SmallBenchmarksRouteAtOptimalWidth) {
  for (const std::string name : {"tiny", "9symml", "term1"}) {
    const PipelineFixture fx(name);
    flow::MinWidthOptions options;
    options.route.timeout_seconds = 120.0;
    const flow::MinWidthResult result =
        flow::FindMinimumWidthOnGraph(fx.conflict, fx.peak, options);
    ASSERT_GT(result.min_width, 0) << name;
    EXPECT_TRUE(result.proven_optimal) << name;
    EXPECT_GE(result.min_width, fx.peak) << name;
    std::string error;
    EXPECT_TRUE(flow::ValidateTrackAssignment(
        fx.arch, fx.routing, result.routable.tracks, result.min_width,
        &error))
        << name << ": " << error;
  }
}

TEST(IntegrationTest, DimacsArtifactsRoundTripThroughThePipeline) {
  // The paper's flow materializes a .col file, then a .cnf file. Check that
  // serializing and re-reading both does not change the answer.
  const PipelineFixture fx("tiny");
  std::ostringstream col_text;
  graph::WriteDimacsCol(fx.conflict, col_text);
  const auto conflict2 = graph::ParseDimacsColString(col_text.str());
  ASSERT_TRUE(conflict2.has_value());
  EXPECT_EQ(conflict2->Edges(), fx.conflict.Edges());

  const int width = graph::NumColorsUsed(graph::DsaturColoring(fx.conflict));
  const encode::EncodedColoring encoded = encode::EncodeColoring(
      *conflict2, width, encode::GetEncoding("ITE-linear-2+muldirect"));
  std::ostringstream cnf_text;
  sat::WriteDimacs(encoded.cnf, cnf_text);
  const auto cnf2 = sat::ParseDimacsString(cnf_text.str());
  ASSERT_TRUE(cnf2.has_value());

  sat::Solver solver;
  ASSERT_TRUE(solver.AddCnf(*cnf2));
  ASSERT_EQ(solver.Solve(), sat::SolveResult::kSat);
  const auto colors = encode::DecodeColoring(encoded, solver.model());
  EXPECT_TRUE(fx.conflict.IsProperColoring(colors, width));
}

TEST(IntegrationTest, UnroutableInstanceAgreesAcrossTable2Encodings) {
  const PipelineFixture fx("term1");
  ASSERT_GE(fx.peak, 2);
  for (const std::string& name : encode::Table2EncodingNames()) {
    flow::DetailedRouteOptions options;
    options.encoding = encode::GetEncoding(name);
    options.heuristic = symmetry::Heuristic::kS1;
    options.timeout_seconds = 120.0;
    const auto result =
        flow::RouteDetailedOnGraph(fx.conflict, fx.peak - 1, options);
    EXPECT_EQ(result.status, sat::SolveResult::kUnsat) << name;
  }
}

TEST(IntegrationTest, Table2BenchmarksHaveMeaningfulScale) {
  // The big-eight benchmarks must produce non-trivial conflict graphs (the
  // SAT instances of Table 2). Keep this cheap: no SAT solving here.
  for (const std::string& name : netlist::Table2BenchmarkNames()) {
    const PipelineFixture fx(name);
    EXPECT_GT(fx.conflict.num_vertices(), 50) << name;
    EXPECT_GT(fx.conflict.num_edges(), 100u) << name;
    EXPECT_GE(fx.peak, 3) << name;
    std::string error;
    EXPECT_TRUE(route::ValidateGlobalRouting(fx.arch, fx.bench.placement,
                                             fx.routing, &error))
        << name << ": " << error;
  }
}

TEST(IntegrationTest, FileDrivenPipelineMatchesInMemoryPipeline) {
  // Serialize the placed netlist and the global routing through their file
  // formats, re-load both, and check the detailed-routing answer (W*) is
  // identical to the in-memory flow — the SEGA-style file workflow.
  const PipelineFixture fx("tiny");
  const std::string dir = testing::TempDir();
  const std::string net_path = dir + "/satfr_it_tiny.net";
  const std::string route_path = dir + "/satfr_it_tiny.route";

  const auto bench = netlist::GenerateMcncBenchmark("tiny");
  ASSERT_TRUE(netlist::WritePlacedNetlistFile(bench.netlist, bench.placement,
                                              "tiny", net_path));
  ASSERT_TRUE(route::WriteGlobalRoutingFile(fx.arch, fx.routing, route_path));

  std::string error;
  const auto parsed_net = netlist::ParsePlacedNetlistFile(net_path, &error);
  ASSERT_TRUE(parsed_net.has_value()) << error;
  const auto parsed_route =
      route::ParseGlobalRoutingFile(route_path, &error);
  ASSERT_TRUE(parsed_route.has_value()) << error;
  ASSERT_EQ(parsed_route->grid_size, fx.arch.grid_size());
  ASSERT_TRUE(route::ValidateGlobalRouting(
      fx.arch, parsed_net->placement, parsed_route->routing, &error))
      << error;

  const graph::Graph conflict =
      flow::BuildConflictGraph(fx.arch, parsed_route->routing);
  const auto from_files = flow::FindMinimumWidthOnGraph(
      conflict, route::PeakCongestion(fx.arch, parsed_route->routing), {});
  const auto in_memory = flow::FindMinimumWidthOnGraph(
      fx.conflict, fx.peak, {});
  EXPECT_EQ(from_files.min_width, in_memory.min_width);
}

TEST(IntegrationTest, GeneratedCnfSizesScaleWithBenchmark) {
  const PipelineFixture small("tiny");
  const PipelineFixture large("term1");
  const auto encode_size = [](const PipelineFixture& fx) {
    const auto enc = encode::EncodeColoring(
        fx.conflict, 5, encode::GetEncoding("muldirect"));
    return enc.cnf.num_clauses();
  };
  EXPECT_LT(encode_size(small), encode_size(large));
}

// Randomized end-to-end property sweep: for fuzzed small circuits, the
// whole pipeline must uphold its invariants — routes validate, W* >= both
// lower bounds, the SAT routing checks out, the greedy baseline never beats
// the SAT optimum, and the W*-1 refutation passes the RUP checker.
class PipelineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzzTest, InvariantsHold) {
  netlist::McncParams params;
  params.name = "fuzz_" + std::to_string(GetParam());
  Rng knobs(static_cast<std::uint64_t>(GetParam()) * 7919u + 13u);
  params.grid_size = static_cast<int>(4 + knobs.NextBelow(4));
  params.num_nets = static_cast<int>(8 + knobs.NextBelow(20));
  params.max_fanout = static_cast<int>(2 + knobs.NextBelow(4));
  params.locality = 0.5 + knobs.NextDouble() * 0.4;
  const netlist::McncBenchmark bench = GenerateMcncBenchmark(params);

  const Arch arch(params.grid_size);
  const DeviceGraph device(arch);
  const route::GlobalRouting routing =
      route::RouteGlobally(device, bench.netlist, bench.placement);
  std::string error;
  ASSERT_TRUE(
      route::ValidateGlobalRouting(arch, bench.placement, routing, &error))
      << error;

  const graph::Graph conflict = flow::BuildConflictGraph(arch, routing);
  const int peak = route::PeakCongestion(arch, routing);

  flow::MinWidthOptions options;
  options.route.timeout_seconds = 60.0;
  options.route.verify_unsat_proof = true;
  const flow::MinWidthResult result =
      flow::FindMinimumWidthOnGraph(conflict, peak, options);
  ASSERT_GT(result.min_width, 0);
  EXPECT_GE(result.min_width, peak);
  EXPECT_GE(result.min_width, graph::GreedyCliqueLowerBound(conflict));
  EXPECT_TRUE(flow::ValidateTrackAssignment(
      arch, routing, result.routable.tracks, result.min_width, &error))
      << error;
  if (result.min_width > 1) {
    ASSERT_TRUE(result.proven_optimal);
    EXPECT_TRUE(result.unroutable.proof_verified)
        << "RUP check failed on the W*-1 refutation";
  }
  const int greedy = route::GreedyMinimumWidth(conflict, peak);
  ASSERT_GT(greedy, 0);
  EXPECT_GE(greedy, result.min_width);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzzTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace satfr
