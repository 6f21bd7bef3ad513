#include <gtest/gtest.h>

#include <sstream>

#include "fpga/device_graph.h"
#include "netlist/mcnc_suite.h"
#include "route/global_router.h"
#include "route/routing_io.h"

namespace satfr::route {
namespace {

TEST(RoutingIoTest, RoundTripGeneratedRouting) {
  const netlist::McncBenchmark bench =
      netlist::GenerateMcncBenchmark("tiny");
  const fpga::Arch arch(bench.params.grid_size);
  const fpga::DeviceGraph device(arch);
  const GlobalRouting routing =
      RouteGlobally(device, bench.netlist, bench.placement);

  std::ostringstream out;
  WriteGlobalRouting(arch, routing, out);
  std::string error;
  const auto parsed = ParseGlobalRoutingString(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->grid_size, arch.grid_size());
  ASSERT_EQ(parsed->routing.routes.size(), routing.routes.size());
  for (std::size_t i = 0; i < routing.routes.size(); ++i) {
    EXPECT_EQ(parsed->routing.routes[i], routing.routes[i]) << i;
    EXPECT_EQ(parsed->routing.two_pin_nets[i].parent,
              routing.two_pin_nets[i].parent);
    EXPECT_EQ(parsed->routing.two_pin_nets[i].source,
              routing.two_pin_nets[i].source);
    EXPECT_EQ(parsed->routing.two_pin_nets[i].sink,
              routing.two_pin_nets[i].sink);
  }
  // Reloaded routing still validates against the placement.
  EXPECT_TRUE(
      ValidateGlobalRouting(arch, bench.placement, parsed->routing, &error))
      << error;
}

TEST(RoutingIoTest, ParseHandWrittenFile) {
  const char* text =
      "satfr_routing 1\n"
      "# a 2x2 fabric\n"
      "grid 2\n"
      "route 0 0 1 : H(0,0) H(1,0)\n"
      "route 1 2 3 : V(0,0)\n";
  std::string error;
  const auto parsed = ParseGlobalRoutingString(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const fpga::Arch arch(2);
  EXPECT_EQ(parsed->routing.routes[0][0], arch.HorizontalSegment(0, 0));
  EXPECT_EQ(parsed->routing.routes[0][1], arch.HorizontalSegment(1, 0));
  EXPECT_EQ(parsed->routing.routes[1][0], arch.VerticalSegment(0, 0));
}

TEST(RoutingIoTest, EmptyRouteAllowed) {
  const auto parsed = ParseGlobalRoutingString(
      "satfr_routing 1\ngrid 2\nroute 0 0 1 :\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->routing.routes[0].empty());
}

TEST(RoutingIoTest, RejectsBadSegment) {
  std::string error;
  EXPECT_FALSE(ParseGlobalRoutingString(
                   "satfr_routing 1\ngrid 2\nroute 0 0 1 : H(9,9)\n", &error)
                   .has_value());
  EXPECT_NE(error.find("bad segment"), std::string::npos);
  EXPECT_FALSE(ParseGlobalRoutingString(
                   "satfr_routing 1\ngrid 2\nroute 0 0 1 : X(0,0)\n")
                   .has_value());
}

TEST(RoutingIoTest, RejectsMissingGrid) {
  std::string error;
  EXPECT_FALSE(ParseGlobalRoutingString(
                   "satfr_routing 1\nroute 0 0 1 : H(0,0)\n", &error)
                   .has_value());
  EXPECT_NE(error.find("route before grid"), std::string::npos);
}

TEST(RoutingIoTest, RejectsMissingHeader) {
  EXPECT_FALSE(ParseGlobalRoutingString("grid 2\n").has_value());
}

// Every number is a whole, in-range integer token: no silent zero for a
// word, no prefix of "8x", no wrap-around of a value past INT_MAX.
TEST(RoutingIoTest, RejectsMalformedNumbers) {
  const char* const bad[] = {
      "satfr_routing 1\ngrid 2\nroute x y z : H(0,0)\n",
      "satfr_routing 1\ngrid 2\nroute 0 0 1x : H(0,0)\n",
      "satfr_routing 1\ngrid 2\nroute 4294967296 0 1 : H(0,0)\n",
      "satfr_routing 1\ngrid 2x\nroute 0 0 1 : H(0,0)\n",
      "satfr_routing 1\ngrid 4294967298\nroute 0 0 1 :\n",
      "satfr_routing 1\ngrid 2\nroute 0 0 1 : H(0,0)junk\n",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(ParseGlobalRoutingString(text, &error).has_value()) << text;
    EXPECT_NE(error.find("(line "), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace satfr::route
