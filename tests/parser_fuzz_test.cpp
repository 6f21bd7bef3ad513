// Fuzz-style robustness tests: every text parser in the library must
// either accept or cleanly reject arbitrary mangled input — never crash,
// hang, or return an object violating its invariants.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "graph/dimacs_col.h"
#include "netlist/netlist_io.h"
#include "route/routing_io.h"
#include "sat/dimacs.h"

namespace satfr {
namespace {

// Random printable garbage with structure-ish tokens sprinkled in.
std::string RandomGarbage(Rng& rng, std::size_t length) {
  static const char* const kTokens[] = {
      "p",   "cnf", "edge",  "e",     "0",     "1",    "-1",
      "99",  "-99", "grid",  "block", "net",   "route", ":",
      "H(0,0)", "V(1,1)", "satfr_netlist", "satfr_routing", "\n", " ",
  };
  std::string out;
  for (std::size_t i = 0; i < length; ++i) {
    if (rng.NextBool(0.7)) {
      out += kTokens[rng.NextBelow(sizeof(kTokens) / sizeof(kTokens[0]))];
      out += ' ';
    } else {
      out += static_cast<char>(32 + rng.NextBelow(95));
    }
    if (rng.NextBool(0.15)) out += '\n';
  }
  return out;
}

// Mutates a valid document: deletes, duplicates, or scrambles lines.
std::string Mutate(Rng& rng, const std::string& valid) {
  std::vector<std::string> lines;
  std::istringstream in(valid);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  const int mutations = static_cast<int>(1 + rng.NextBelow(4));
  for (int m = 0; m < mutations && !lines.empty(); ++m) {
    const std::size_t at = rng.NextBelow(lines.size());
    switch (rng.NextBelow(3)) {
      case 0:
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 1:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines[rng.NextBelow(lines.size())]);
        break;
      default:
        if (!lines[at].empty()) {
          lines[at][rng.NextBelow(lines[at].size())] =
              static_cast<char>(32 + rng.NextBelow(95));
        }
        break;
    }
  }
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

TEST(ParserFuzzTest, DimacsCnfSurvivesGarbage) {
  Rng rng(0xFADE);
  for (int i = 0; i < 300; ++i) {
    const auto parsed =
        sat::ParseDimacsString(RandomGarbage(rng, 60));
    if (parsed) {
      // Accepted documents must be internally consistent.
      for (const sat::Clause& clause : parsed->clauses()) {
        for (const sat::Lit l : clause) {
          EXPECT_GE(l.var(), 0);
          EXPECT_LT(l.var(), parsed->num_vars());
        }
      }
    }
  }
}

TEST(ParserFuzzTest, DimacsColSurvivesGarbage) {
  Rng rng(0xBEEF);
  for (int i = 0; i < 300; ++i) {
    const auto parsed =
        graph::ParseDimacsColString(RandomGarbage(rng, 60));
    if (parsed) {
      for (const auto& [u, v] : parsed->Edges()) {
        EXPECT_GE(u, 0);
        EXPECT_LT(v, parsed->num_vertices());
      }
    }
  }
}

// Counts and ids beyond int must be rejected, not cast down: the cast wraps
// them onto small values (the first input would read as a 2-variable CNF
// holding the clause (x0)). None of these inputs allocates anything large.
TEST(ParserFuzzTest, DimacsCnfRejectsValuesBeyondInt) {
  for (const char* text : {
           "p cnf 4294967298 1\n4294967297 0\n",
           "p cnf 4294967296 0\n",
           "p cnf 2 4294967297\n1 0\n",
           "p cnf 2 1\n4294967297 0\n",
           "p cnf 2 1\n-9223372036854775808 0\n",
       }) {
    EXPECT_FALSE(sat::ParseDimacsString(text).has_value()) << text;
  }
  EXPECT_TRUE(sat::ParseDimacsString("p cnf 2 1\n-2 1 0\n").has_value());
}

TEST(ParserFuzzTest, DimacsColRejectsValuesBeyondInt) {
  for (const char* text : {
           "p edge 4294967298 1\ne 4294967297 1\n",
           "p edge 4294967296 0\n",
           "p edge 2 1\ne 4294967297 1\n",
       }) {
    EXPECT_FALSE(graph::ParseDimacsColString(text).has_value()) << text;
  }
  EXPECT_TRUE(graph::ParseDimacsColString("p edge 2 1\ne 2 1\n").has_value());
}

TEST(ParserFuzzTest, NetlistSurvivesMutation) {
  const char* valid =
      "satfr_netlist 1\n"
      "circuit fuzz\n"
      "grid 4\n"
      "block a 0 0\n"
      "block b 1 2\n"
      "block c 3 3\n"
      "net n0 a b\n"
      "net n1 c a b\n";
  Rng rng(0xFEED);
  for (int i = 0; i < 300; ++i) {
    const auto parsed =
        netlist::ParsePlacedNetlistString(Mutate(rng, valid));
    if (parsed) {
      EXPECT_TRUE(parsed->netlist.Validate());
      EXPECT_TRUE(parsed->placement.CoversNetlist(parsed->netlist));
    }
  }
}

TEST(ParserFuzzTest, RoutingSurvivesMutation) {
  const char* valid =
      "satfr_routing 1\n"
      "grid 3\n"
      "route 0 0 1 : H(0,0) H(1,0)\n"
      "route 1 2 3 : V(0,0) V(0,1)\n";
  Rng rng(0xACED);
  const fpga::Arch arch(3);
  for (int i = 0; i < 300; ++i) {
    const auto parsed =
        route::ParseGlobalRoutingString(Mutate(rng, valid));
    if (parsed && parsed->grid_size == 3) {
      for (const auto& segments : parsed->routing.routes) {
        for (const fpga::SegmentIndex seg : segments) {
          EXPECT_GE(seg, 0);
          EXPECT_LT(seg, arch.num_segments());
        }
      }
    }
  }
}

}  // namespace
}  // namespace satfr
