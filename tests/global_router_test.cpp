#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/mcnc_suite.h"
#include "route/global_router.h"

namespace satfr::route {
namespace {

using fpga::Arch;
using fpga::DeviceGraph;

TEST(GlobalRouterTest, RoutesValidateOnAllSmallBenchmarks) {
  for (const std::string name : {"tiny", "9symml", "term1"}) {
    const netlist::McncBenchmark bench =
        netlist::GenerateMcncBenchmark(name);
    const Arch arch(bench.params.grid_size);
    const DeviceGraph device(arch);
    const GlobalRouting routing =
        RouteGlobally(device, bench.netlist, bench.placement);
    std::string error;
    EXPECT_TRUE(
        ValidateGlobalRouting(arch, bench.placement, routing, &error))
        << name << ": " << error;
    EXPECT_EQ(routing.NumTwoPinNets(),
              static_cast<std::size_t>(bench.netlist.NumTwoPinConnections()))
        << name;
  }
}

TEST(GlobalRouterTest, NegotiationDoesNotWorsenShortestPathPeak) {
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark("term1");
  const Arch arch(bench.params.grid_size);
  const DeviceGraph device(arch);

  // Baseline: pure shortest paths (negotiation disabled via 0 rounds).
  GlobalRouterOptions no_negotiation;
  no_negotiation.negotiation_rounds = 0;
  const GlobalRouting baseline =
      RouteGlobally(device, bench.netlist, bench.placement, no_negotiation);

  const GlobalRouting negotiated =
      RouteGlobally(device, bench.netlist, bench.placement);
  EXPECT_LE(PeakCongestion(arch, negotiated),
            PeakCongestion(arch, baseline));
}

TEST(GlobalRouterTest, Deterministic) {
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark("9symml");
  const Arch arch(bench.params.grid_size);
  const DeviceGraph device(arch);
  const GlobalRouting a = RouteGlobally(device, bench.netlist, bench.placement);
  const GlobalRouting b = RouteGlobally(device, bench.netlist, bench.placement);
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i], b.routes[i]) << "route " << i;
  }
}

TEST(GlobalRouterTest, PeakCongestionIsPositive) {
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark("tiny");
  const Arch arch(bench.params.grid_size);
  const DeviceGraph device(arch);
  const GlobalRouting routing =
      RouteGlobally(device, bench.netlist, bench.placement);
  EXPECT_GE(PeakCongestion(arch, routing), 1);
}

TEST(GlobalRouterTest, CapacityLowerBoundNeverExceedsPeak) {
  for (const std::string& name : netlist::AllBenchmarkNames()) {
    const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark(name);
    const Arch arch(bench.params.grid_size);
    const DeviceGraph device(arch);
    const int bound =
        CapacityLowerBound(arch, bench.netlist, bench.placement);
    EXPECT_GE(bound, 1) << name;
    for (const Decomposition decomposition :
         {Decomposition::kStar, Decomposition::kChain}) {
      GlobalRouterOptions options;
      options.decomposition = decomposition;
      const GlobalRouting routing =
          RouteGlobally(device, bench.netlist, bench.placement, options);
      EXPECT_LE(bound, PeakCongestion(arch, routing))
          << name << " (" << ToString(decomposition) << ")";
    }
  }
}

TEST(GlobalRouterTest, CapacityLowerBoundIsExactOnACrowdedCorner) {
  // Four parents leave the corner block at (0,0), whose switch node has two
  // segments: the cut bound is ceil(4/2) = 2 and the router meets it. The
  // fan-out-2 net counts once, so counting 2-pin nets (5) would give 3.
  netlist::Netlist nets;
  const netlist::BlockId a = nets.AddBlock("a");
  const netlist::BlockId b = nets.AddBlock("b");
  const netlist::BlockId c = nets.AddBlock("c");
  const netlist::BlockId d = nets.AddBlock("d");
  const netlist::BlockId e = nets.AddBlock("e");
  const netlist::BlockId f = nets.AddBlock("f");
  nets.AddNet({"ab", a, {b}});
  nets.AddNet({"ac", a, {c}});
  nets.AddNet({"ad", a, {d}});
  nets.AddNet({"aef", a, {e, f}});
  netlist::Placement placement(3, nets.num_blocks());
  ASSERT_TRUE(placement.Place(a, 0, 0));
  ASSERT_TRUE(placement.Place(b, 1, 0));
  ASSERT_TRUE(placement.Place(c, 0, 1));
  ASSERT_TRUE(placement.Place(d, 2, 2));
  ASSERT_TRUE(placement.Place(e, 2, 0));
  ASSERT_TRUE(placement.Place(f, 0, 2));
  const Arch arch(3);
  const DeviceGraph device(arch);

  EXPECT_EQ(CapacityLowerBound(arch, nets, placement), 2);
  const GlobalRouting routing = RouteGlobally(device, nets, placement);
  EXPECT_EQ(PeakCongestion(arch, routing), 2);
}

// FNV-1a over (parent, route length, segments) of every route, in order.
std::uint64_t RouteDigest(const GlobalRouting& routing) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < routing.routes.size(); ++i) {
    mix(routing.two_pin_nets[i].parent);
    mix(static_cast<std::int64_t>(routing.routes[i].size()));
    for (const fpga::SegmentIndex seg : routing.routes[i]) mix(seg);
  }
  return hash;
}

// Digests recorded from the router before the maze-search and cut-bound
// speed-ups: any change to the routes (and hence to the conflict graphs and
// W*) shows up here. The chain cases after alu2's were recorded from the
// router that still kept a per-segment list of parent counts, before the
// flat distinct-parent array replaced it; chains put 2-pin nets of one
// parent on the same segments, which is what the array's sibling marks must
// count once.
TEST(GlobalRouterTest, RoutesMatchRecordedDigest) {
  struct Case {
    const char* name;
    Decomposition decomposition;
    std::uint64_t digest;
  };
  const std::vector<Case> cases = {
      {"alu2", Decomposition::kStar, 0xd3b463ca4c9e21afull},
      {"too_large", Decomposition::kStar, 0x8ae09f0cec4ae5a3ull},
      {"alu4", Decomposition::kStar, 0x10c130fc800fec16ull},
      {"C880", Decomposition::kStar, 0x8009e44a077dc0a6ull},
      {"apex7", Decomposition::kStar, 0xc2fe1c1a06cac0f9ull},
      {"C1355", Decomposition::kStar, 0x41aab38300f5116eull},
      {"vda", Decomposition::kStar, 0xd9c7e2dacddaf6d6ull},
      {"k2", Decomposition::kStar, 0x894875d77060c1faull},
      {"tiny", Decomposition::kStar, 0xd264a1430ac5bbccull},
      {"9symml", Decomposition::kStar, 0x49075e412df7aaa5ull},
      {"term1", Decomposition::kStar, 0x711f9d4bbb0c51aaull},
      {"example2", Decomposition::kStar, 0x3d1caa77e4ca1e25ull},
      {"alu2", Decomposition::kChain, 0x0470bc82a9abeee3ull},
      {"too_large", Decomposition::kChain, 0x85206c6d39b2ce45ull},
      {"alu4", Decomposition::kChain, 0xf0d0662b19157ba2ull},
      {"C880", Decomposition::kChain, 0x230fd55a4d6feadeull},
      {"apex7", Decomposition::kChain, 0x87b6824d10b26f48ull},
      {"C1355", Decomposition::kChain, 0x08b53275702542b2ull},
      {"vda", Decomposition::kChain, 0xe0078d58185cdef3ull},
      {"k2", Decomposition::kChain, 0x8d4c51471aae879dull},
  };
  for (const Case& c : cases) {
    const netlist::McncBenchmark bench =
        netlist::GenerateMcncBenchmark(c.name);
    const Arch arch(bench.params.grid_size);
    const DeviceGraph device(arch);
    GlobalRouterOptions options;
    options.decomposition = c.decomposition;
    const GlobalRouting routing =
        RouteGlobally(device, bench.netlist, bench.placement, options);
    EXPECT_EQ(RouteDigest(routing), c.digest)
        << c.name << " (" << ToString(c.decomposition) << ") 0x" << std::hex
        << RouteDigest(routing);
  }
}

}  // namespace
}  // namespace satfr::route
