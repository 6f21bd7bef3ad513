#include <gtest/gtest.h>

#include <sstream>

#include "netlist/netlist_io.h"

namespace satfr::netlist {
namespace {

constexpr const char* kGood =
    "satfr_netlist 1\n"
    "circuit demo\n"
    "grid 4\n"
    "# blocks\n"
    "block a 0 0\n"
    "block b 2 1\n"
    "block c 3 3\n"
    "net n0 a b c\n"
    "net n1 c a\n";

TEST(NetlistIoTest, ParseGoodFile) {
  std::string error;
  const auto parsed = ParsePlacedNetlistString(kGood, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->params.name, "demo");
  EXPECT_EQ(parsed->params.grid_size, 4);
  EXPECT_EQ(parsed->netlist.num_blocks(), 3);
  EXPECT_EQ(parsed->netlist.num_nets(), 2);
  EXPECT_EQ(parsed->netlist.net(0).sinks.size(), 2u);
  EXPECT_EQ(parsed->placement.LocationOf(1).x, 2);
  EXPECT_EQ(parsed->placement.LocationOf(1).y, 1);
}

TEST(NetlistIoTest, RoundTripThroughWriter) {
  const auto parsed = ParsePlacedNetlistString(kGood);
  ASSERT_TRUE(parsed.has_value());
  std::ostringstream out;
  WritePlacedNetlist(parsed->netlist, parsed->placement, "demo", out);
  const auto reparsed = ParsePlacedNetlistString(out.str());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->params.name, "demo");
  EXPECT_EQ(reparsed->netlist.num_blocks(), parsed->netlist.num_blocks());
  for (NetId n = 0; n < parsed->netlist.num_nets(); ++n) {
    EXPECT_EQ(reparsed->netlist.net(n).source,
              parsed->netlist.net(n).source);
    EXPECT_EQ(reparsed->netlist.net(n).sinks, parsed->netlist.net(n).sinks);
  }
}

TEST(NetlistIoTest, GeneratedBenchmarksRoundTrip) {
  for (const std::string name : {"tiny", "9symml"}) {
    const McncBenchmark bench = GenerateMcncBenchmark(name);
    std::ostringstream out;
    WritePlacedNetlist(bench.netlist, bench.placement, name, out);
    std::string error;
    const auto reparsed = ParsePlacedNetlistString(out.str(), &error);
    ASSERT_TRUE(reparsed.has_value()) << name << ": " << error;
    EXPECT_EQ(reparsed->netlist.num_nets(), bench.netlist.num_nets());
    for (BlockId b = 0; b < bench.netlist.num_blocks(); ++b) {
      EXPECT_EQ(reparsed->placement.LocationOf(b).x,
                bench.placement.LocationOf(b).x);
    }
  }
}

TEST(NetlistIoTest, RejectsMissingHeader) {
  std::string error;
  EXPECT_FALSE(ParsePlacedNetlistString("grid 4\n", &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(NetlistIoTest, RejectsUnknownBlockInNet) {
  std::string error;
  EXPECT_FALSE(ParsePlacedNetlistString(
                   "satfr_netlist 1\ngrid 2\nblock a 0 0\nnet n a ghost\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("unknown block"), std::string::npos);
}

TEST(NetlistIoTest, RejectsDuplicateBlock) {
  std::string error;
  EXPECT_FALSE(
      ParsePlacedNetlistString(
          "satfr_netlist 1\ngrid 2\nblock a 0 0\nblock a 1 1\n", &error)
          .has_value());
  EXPECT_NE(error.find("duplicate block"), std::string::npos);
}

TEST(NetlistIoTest, RejectsSharedSite) {
  std::string error;
  EXPECT_FALSE(
      ParsePlacedNetlistString(
          "satfr_netlist 1\ngrid 2\nblock a 0 0\nblock b 0 0\n", &error)
          .has_value());
  EXPECT_NE(error.find("share site"), std::string::npos);
}

TEST(NetlistIoTest, RejectsOffGridBlock) {
  std::string error;
  EXPECT_FALSE(ParsePlacedNetlistString(
                   "satfr_netlist 1\ngrid 2\nblock a 5 0\n", &error)
                   .has_value());
  EXPECT_NE(error.find("off-grid"), std::string::npos);
}

// Every number is a whole, in-range integer token: "abc" is not x = 0,
// "4x" is not 4, and a value past INT_MAX does not wrap into the grid.
TEST(NetlistIoTest, RejectsMalformedNumbers) {
  const char* const bad[] = {
      "satfr_netlist 1\ngrid 4\nblock a 0 0\nblock b abc 2\n",
      "satfr_netlist 1\ngrid 4\nblock a 0 1y\n",
      "satfr_netlist 1\ngrid 4x\nblock a 0 0\n",
      "satfr_netlist 1\ngrid 4294967297\nblock a 0 0\n",
      "satfr_netlist 1\ngrid 4\nblock a 4294967296 0\n",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(ParsePlacedNetlistString(text, &error).has_value()) << text;
    EXPECT_NE(error.find("(line "), std::string::npos) << error;
  }
}

TEST(NetlistIoTest, RejectsNetWithoutSinks) {
  std::string error;
  EXPECT_FALSE(ParsePlacedNetlistString(
                   "satfr_netlist 1\ngrid 2\nblock a 0 0\nnet n a\n", &error)
                   .has_value());
}

TEST(NetlistIoTest, MissingFile) {
  std::string error;
  EXPECT_FALSE(
      ParsePlacedNetlistFile("/nonexistent/x.net", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace satfr::netlist
