// ClauseSink unit tests plus the sink-equivalence sweep: for every
// evaluated encoding and symmetry heuristic, the streamed clause sequence
// must match the materialized EncodeColoring output clause for clause, and
// the direct-to-solver path must decode to the same answer.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "encode/csp_to_cnf.h"
#include "encode/registry.h"
#include "sat/clause_sink.h"
#include "sat/dimacs.h"
#include "sat/solver.h"
#include "symmetry/symmetry.h"
#include "test_util.h"

namespace satfr::sat {
namespace {

TEST(CnfCollectorSinkTest, MatchesDirectCnfConstruction) {
  Cnf direct(4);
  direct.AddUnit(Lit::Pos(0));
  direct.AddBinary(Lit::Neg(1), Lit::Pos(2));
  direct.AddTernary(Lit::Pos(1), Lit::Neg(2), Lit::Pos(3));

  Cnf collected;
  CnfCollectorSink sink(collected);
  sink.EnsureVars(4);
  sink.EmitUnit(Lit::Pos(0));
  sink.EmitBinary(Lit::Neg(1), Lit::Pos(2));
  sink.EmitTernary(Lit::Pos(1), Lit::Neg(2), Lit::Pos(3));
  EXPECT_TRUE(sink.Finish());

  EXPECT_EQ(collected.num_vars(), direct.num_vars());
  EXPECT_EQ(collected.clauses(), direct.clauses());
  EXPECT_EQ(sink.num_clauses(), 3u);
  EXPECT_EQ(sink.num_literals(), 6u);
}

TEST(CnfCollectorSinkTest, EmitVarAllocatesSequentially) {
  Cnf cnf;
  CnfCollectorSink sink(cnf);
  EXPECT_EQ(sink.EmitVar(), 0);
  EXPECT_EQ(sink.EmitVar(), 1);
  sink.EnsureVars(5);
  EXPECT_EQ(sink.EmitVar(), 5);
  EXPECT_EQ(cnf.num_vars(), 6);
}

TEST(SolverSinkTest, SolvesWithoutIntermediateCnf) {
  Solver solver;
  SolverSink sink(solver);
  sink.EnsureVars(2);
  // (a | b) & (~a | b) & (~b | a) -> a=b=true.
  sink.EmitBinary(Lit::Pos(0), Lit::Pos(1));
  sink.EmitBinary(Lit::Neg(0), Lit::Pos(1));
  sink.EmitBinary(Lit::Neg(1), Lit::Pos(0));
  EXPECT_TRUE(sink.Finish());
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_TRUE(solver.model()[0]);
  EXPECT_TRUE(solver.model()[1]);
}

TEST(SolverSinkTest, FinishFalseOnTrivialUnsat) {
  Solver solver;
  SolverSink sink(solver);
  sink.EnsureVars(1);
  sink.EmitUnit(Lit::Pos(0));
  sink.EmitUnit(Lit::Neg(0));
  EXPECT_FALSE(sink.Finish());
  EXPECT_FALSE(solver.okay());
}

TEST(StreamingDimacsSinkTest, RoundTripsThroughParserWithBackPatchedHeader) {
  std::stringstream out;
  StreamingDimacsSink sink(out, {"a comment", "another"});
  sink.EnsureVars(3);
  sink.EmitBinary(Lit::Pos(0), Lit::Neg(2));
  sink.EmitUnit(Lit::Pos(1));
  sink.EmitTernary(Lit::Neg(0), Lit::Pos(1), Lit::Pos(2));
  ASSERT_TRUE(sink.Finish());

  const std::string text = out.str();
  EXPECT_NE(text.find("c a comment"), std::string::npos);
  EXPECT_NE(text.find("p cnf"), std::string::npos);

  const std::optional<Cnf> parsed = ParseDimacsString(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_vars(), 3);
  ASSERT_EQ(parsed->num_clauses(), 3u);
  EXPECT_EQ(parsed->clauses()[0], (Clause{Lit::Pos(0), Lit::Neg(2)}));
  EXPECT_EQ(parsed->clauses()[1], (Clause{Lit::Pos(1)}));
  EXPECT_EQ(parsed->clauses()[2],
            (Clause{Lit::Neg(0), Lit::Pos(1), Lit::Pos(2)}));
}

TEST(StreamingDimacsSinkTest, MatchesWriteDimacsOnSameCnf) {
  Rng rng(1234);
  const Cnf cnf = testutil::RandomCnf(rng, 12, 40, 4);

  std::stringstream materialized;
  WriteDimacs(cnf, materialized);

  std::stringstream streamed;
  StreamingDimacsSink sink(streamed);
  sink.EnsureVars(cnf.num_vars());
  for (const Clause& clause : cnf.clauses()) sink.EmitClause(clause);
  ASSERT_TRUE(sink.Finish());

  // Both must parse to the same formula (header whitespace may differ
  // because the streaming header is back-patched into a fixed-width field).
  const std::optional<Cnf> a = ParseDimacsString(materialized.str());
  const std::optional<Cnf> b = ParseDimacsString(streamed.str());
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->num_vars(), b->num_vars());
  EXPECT_EQ(a->clauses(), b->clauses());
}

TEST(CountingSinkTest, HistogramCountsLengths) {
  CountingSink sink;
  sink.EnsureVars(4);
  sink.EmitUnit(Lit::Pos(0));
  sink.EmitBinary(Lit::Pos(0), Lit::Pos(1));
  sink.EmitBinary(Lit::Neg(0), Lit::Pos(2));
  sink.EmitTernary(Lit::Pos(1), Lit::Pos(2), Lit::Pos(3));
  EXPECT_TRUE(sink.Finish());
  EXPECT_EQ(sink.num_clauses(), 4u);
  EXPECT_EQ(sink.num_literals(), 8u);
  EXPECT_EQ(sink.NumClausesOfSize(1), 1u);
  EXPECT_EQ(sink.NumClausesOfSize(2), 2u);
  EXPECT_EQ(sink.NumClausesOfSize(3), 1u);
  EXPECT_EQ(sink.NumClausesOfSize(4), 0u);
  EXPECT_EQ(sink.NumClausesOfSize(100), 0u);
}

}  // namespace
}  // namespace satfr::sat

namespace satfr::encode {
namespace {

graph::Graph SweepGraph() {
  // Dense enough that conflict and symmetry clauses all appear, small
  // enough that the 14 x 3 sweep stays fast.
  graph::Graph g(7);
  for (graph::VertexId u = 0; u < 7; ++u) {
    g.AddEdge(u, (u + 1) % 7);
    g.AddEdge(u, (u + 2) % 7);
  }
  return g;
}

// Every evaluated encoding x symmetry heuristic: the streamed clause
// sequence equals the materialized one, counters agree with the exact
// clause-count formula, and the direct-to-solver path round-trips.
class SinkEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, symmetry::Heuristic>> {};

TEST_P(SinkEquivalenceTest, StreamedEqualsMaterialized) {
  const EncodingSpec spec = GetEncoding(std::get<0>(GetParam()));
  const symmetry::Heuristic heuristic = std::get<1>(GetParam());
  const graph::Graph g = SweepGraph();
  const int k = 4;
  const std::vector<graph::VertexId> sequence =
      heuristic == symmetry::Heuristic::kNone
          ? std::vector<graph::VertexId>{}
          : symmetry::SymmetrySequence(g, k, heuristic);

  const EncodedColoring materialized = EncodeColoring(g, k, spec, sequence);

  // Collector path reproduces the materialized Cnf clause for clause.
  sat::Cnf streamed;
  sat::CnfCollectorSink collector(streamed);
  const ColoringLayout layout =
      EncodeColoringToSink(g, k, spec, sequence, collector);
  ASSERT_TRUE(collector.Finish());
  EXPECT_EQ(streamed.num_vars(), materialized.cnf.num_vars());
  EXPECT_EQ(streamed.clauses(), materialized.cnf.clauses());

  // Layout metadata matches.
  EXPECT_EQ(layout.num_vars, materialized.num_vars);
  EXPECT_EQ(layout.num_colors, materialized.num_colors);
  EXPECT_EQ(layout.vertex_offset, materialized.vertex_offset);
  EXPECT_EQ(layout.stats.TotalEmitted(), materialized.cnf.num_clauses());
  EXPECT_EQ(ExpectedColoringClauses(g, layout.domain, k, sequence.size()),
            collector.num_clauses());

  // Direct-to-solver path: same variable/clause counts, and the model
  // decodes into a proper coloring through the layout alone (no Cnf).
  sat::Solver solver;
  sat::SolverSink direct(solver);
  EncodeColoringToSink(g, k, spec, sequence, direct);
  ASSERT_TRUE(direct.Finish());
  EXPECT_EQ(direct.num_vars(), materialized.cnf.num_vars());
  EXPECT_EQ(direct.num_clauses(), materialized.cnf.num_clauses());
  ASSERT_EQ(solver.Solve(), sat::SolveResult::kSat);  // chi(C7^2) <= 4
  const std::vector<int> colors = DecodeColoring(layout, solver.model());
  EXPECT_TRUE(g.IsProperColoring(colors, k)) << spec.name;
  for (const int c : colors) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EvaluatedEncodings, SinkEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(EvaluatedEncodingNames()),
                       ::testing::Values(symmetry::Heuristic::kNone,
                                         symmetry::Heuristic::kB1,
                                         symmetry::Heuristic::kS1)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, symmetry::Heuristic>>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      const symmetry::Heuristic h = std::get<1>(info.param);
      return name + "_" +
             (h == symmetry::Heuristic::kNone ? "none" : symmetry::ToString(h));
    });

}  // namespace
}  // namespace satfr::encode
