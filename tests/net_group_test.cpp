// Tests for the net-grouped clause layer: the NetGroupedSink decorator, the
// routing session's grouped stream (clause count and equisatisfiability
// against the flat encoder), the satlint net-group-hygiene pass (clean
// tables accepted, each crafted defect caught — including the cross-guard
// allowance), and the StreamingDimacsSink round trip of a session's stream
// with its activation toggles.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/runner.h"
#include "common/rng.h"
#include "encode/csp_to_cnf.h"
#include "encode/net_group.h"
#include "encode/registry.h"
#include "flow/routing_session.h"
#include "graph/graph.h"
#include "sat/clause_sink.h"
#include "sat/cnf.h"
#include "sat/dimacs.h"
#include "sat/solver.h"
#include "symmetry/symmetry.h"
#include "test_util.h"

namespace satfr::encode {
namespace {

using sat::Clause;
using sat::Cnf;
using sat::CnfCollectorSink;
using sat::Lit;
using sat::SolveResult;
using sat::Solver;
using sat::Var;

graph::Graph Triangle() {
  graph::Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  return g;
}

// ---------------------------------------------------------------------------
// NetGroupedSink mechanics.
// ---------------------------------------------------------------------------

TEST(NetGroupedSinkTest, PassthroughOutsideGroups) {
  Cnf cnf(2);
  CnfCollectorSink collector(cnf);
  NetGroupedSink sink(collector);
  sink.EmitClause({Lit::Pos(0), Lit::Neg(1)});
  ASSERT_TRUE(sink.Finish());
  ASSERT_EQ(cnf.num_clauses(), 1u);
  EXPECT_EQ(cnf.clauses()[0], Clause({Lit::Pos(0), Lit::Neg(1)}));
  EXPECT_TRUE(sink.table().groups.empty());
  EXPECT_EQ(sink.table().first_activation_var, -1);
}

TEST(NetGroupedSinkTest, PrependsOwnActivationLiteral) {
  Cnf cnf(2);
  CnfCollectorSink collector(cnf);
  NetGroupedSink sink(collector);
  const Var a = sink.BeginGroup(/*net=*/7);
  EXPECT_EQ(a, 2);  // first variable past the passthrough ones
  sink.EmitClause({Lit::Pos(0), Lit::Neg(1)});
  sink.EndGroup();
  ASSERT_TRUE(sink.Finish());
  ASSERT_EQ(cnf.num_clauses(), 1u);
  EXPECT_EQ(cnf.clauses()[0],
            Clause({Lit::Neg(a), Lit::Pos(0), Lit::Neg(1)}));
  ASSERT_EQ(sink.table().groups.size(), 1u);
  const NetGroup& group = sink.table().groups[0];
  EXPECT_EQ(group.net, 7);
  EXPECT_EQ(group.epoch, 0);
  EXPECT_EQ(group.activation, a);
  EXPECT_EQ(group.clause_begin, 0u);
  EXPECT_EQ(group.clause_end, 1u);
  EXPECT_EQ(sink.table().first_activation_var, a);
}

TEST(NetGroupedSinkTest, ReemissionOpensFreshEpochAndVariable) {
  Cnf cnf(1);
  CnfCollectorSink collector(cnf);
  NetGroupedSink sink(collector);
  const Var a0 = sink.BeginGroup(4);
  sink.EmitClause({Lit::Pos(0)});
  sink.EndGroup();
  const Var a1 = sink.BeginGroup(4);
  sink.EmitClause({Lit::Neg(0)});
  sink.EndGroup();
  ASSERT_TRUE(sink.Finish());
  ASSERT_EQ(sink.table().groups.size(), 2u);
  EXPECT_NE(a0, a1);
  EXPECT_EQ(sink.table().groups[0].epoch, 0);
  EXPECT_EQ(sink.table().groups[1].epoch, 1);
  EXPECT_EQ(sink.table().groups[1].net, 4);
}

TEST(NetGroupedSinkTest, FinishFailsWhileGroupOpen) {
  Cnf cnf(1);
  CnfCollectorSink collector(cnf);
  NetGroupedSink sink(collector);
  sink.BeginGroup(0);
  EXPECT_TRUE(sink.group_open());
  EXPECT_FALSE(sink.Finish());
  sink.EndGroup();
  EXPECT_TRUE(sink.Finish());
}

// ---------------------------------------------------------------------------
// The routing session's grouped stream. A session opened with audit = true
// mirrors exactly what its resident solver receives: the width ladder, then
// one guarded group per net. Its clause count is the flat encoder's plus
// the ladder's, and the conjunction of all groups under assumed selectors
// is equisatisfiable with the flat encode.
// ---------------------------------------------------------------------------

flow::RoutingSessionOptions AuditOptions(const std::string& encoding,
                                         symmetry::Heuristic heuristic) {
  flow::RoutingSessionOptions options;
  options.encoding = GetEncoding(encoding);
  options.heuristic = heuristic;
  options.audit = true;
  return options;
}

// Clauses of the session's width ladder over `num_vertices` nets at K
// colors: K-2 guard implications plus one guarded negated cube per vertex
// per width 1..K-1.
std::uint64_t LadderClauses(std::uint64_t num_vertices, std::uint64_t k) {
  return k < 2 ? 0 : (k - 2) + (k - 1) * num_vertices;
}

std::vector<Lit> AllSelectors(const NetGroupTable& table) {
  std::vector<Lit> selectors;
  for (const NetGroup& group : table.groups) {
    selectors.push_back(Lit::Pos(group.activation));
  }
  return selectors;
}

// Loads `cnf` into `solver`; false if the load alone refutes it.
bool LoadCnf(const Cnf& cnf, Solver& solver) {
  solver.EnsureVars(cnf.num_vars());
  bool consistent = true;
  for (const Clause& clause : cnf.clauses()) {
    if (!solver.AddClause(clause)) consistent = false;
  }
  return consistent;
}

SolveResult SolveFlat(const graph::Graph& g, int width,
                      const EncodingSpec& spec,
                      const std::vector<graph::VertexId>& sequence) {
  Solver solver;
  if (!LoadCnf(EncodeColoring(g, width, spec, sequence).cnf, solver)) {
    return SolveResult::kUnsat;
  }
  return solver.Solve();
}

TEST(GroupedStreamTest, ClauseCountIsFlatEncoderPlusLadder) {
  const graph::Graph g = Triangle();
  for (const std::string& name : EvaluatedEncodingNames()) {
    const flow::RoutingSession session(
        g, 3, AuditOptions(name, symmetry::Heuristic::kS1));
    ASSERT_TRUE(session.ok()) << name << ": " << session.error();
    const std::vector<graph::VertexId> sequence = symmetry::SymmetrySequence(
        g, /*num_colors=*/3, symmetry::Heuristic::kS1);
    EXPECT_EQ(session.audit_cnf()->num_clauses(),
              ExpectedColoringClauses(g, session.layout().domain, 3,
                                      sequence.size()) +
                  LadderClauses(3, 3))
        << name;
    EXPECT_EQ(session.group_table().groups.size(), 3u) << name;
  }
}

TEST(GroupedStreamTest, EquisatisfiableWithFlatEncodeAcrossEncodings) {
  Rng rng(20260808);
  const graph::Graph g = testutil::RandomGraph(rng, 8, 0.35);
  for (const std::string& name : EvaluatedEncodingNames()) {
    const EncodingSpec& spec = GetEncoding(name);
    for (const auto heuristic :
         {symmetry::Heuristic::kNone, symmetry::Heuristic::kB1,
          symmetry::Heuristic::kS1}) {
      for (const int width : {2, 4}) {
        const SolveResult expected =
            SolveFlat(g, width, spec,
                      symmetry::SymmetrySequence(g, width, heuristic));

        const flow::RoutingSession session(g, width,
                                           AuditOptions(name, heuristic));
        ASSERT_TRUE(session.ok()) << name << ": " << session.error();
        Solver solver;
        const SolveResult streamed =
            LoadCnf(*session.audit_cnf(), solver)
                ? solver.SolveWithAssumptions(
                      AllSelectors(session.group_table()))
                : SolveResult::kUnsat;
        EXPECT_EQ(streamed, expected) << name << " width=" << width;
      }
    }
  }
}

TEST(GroupedStreamTest, FalseSelectorVacatesItsGroup) {
  // Triangle at width 2 is uncolorable with every net active; retiring any
  // one net leaves a single edge, which is 2-colorable — the retired group
  // must contribute nothing under its false selector.
  const flow::RoutingSession session(
      Triangle(), 2, AuditOptions("muldirect", symmetry::Heuristic::kNone));
  ASSERT_TRUE(session.ok()) << session.error();
  const NetGroupTable& table = session.group_table();
  ASSERT_EQ(table.groups.size(), 3u);

  Solver solver;
  ASSERT_TRUE(LoadCnf(*session.audit_cnf(), solver));
  const std::vector<Lit> all = AllSelectors(table);
  EXPECT_EQ(solver.SolveWithAssumptions(all), SolveResult::kUnsat);

  std::vector<Lit> two(all.begin() + 1, all.end());
  ASSERT_TRUE(solver.AddClause({Lit::Neg(table.groups[0].activation)}));
  EXPECT_EQ(solver.SolveWithAssumptions(two), SolveResult::kSat);
}

// ---------------------------------------------------------------------------
// net-group-hygiene pass: clean tables pass, crafted defects are caught.
// ---------------------------------------------------------------------------

std::vector<analysis::Diagnostic> HygieneFindings(const Cnf& cnf,
                                                 const NetGroupTable& table) {
  analysis::AnalysisInput input;
  input.cnf = &cnf;
  input.net_groups = &table;
  const analysis::AnalysisReport report =
      analysis::MakeDefaultRunner().Run(input);
  std::vector<analysis::Diagnostic> found;
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.pass == "net-group-hygiene") found.push_back(d);
  }
  return found;
}

NetGroup MakeGroup(graph::VertexId net, Var activation, std::uint64_t begin,
                   std::uint64_t end) {
  NetGroup group;
  group.net = net;
  group.activation = activation;
  group.clause_begin = begin;
  group.clause_end = end;
  return group;
}

TEST(NetGroupHygieneTest, CleanSessionStreamPasses) {
  // The isolated vertex 3 owns no edge and sits outside the symmetry
  // sequence, so under the power-of-two log encodings (no structural
  // clauses at K = 4) its group is empty.
  graph::Graph g = Triangle();
  g.AddVertex();
  for (const std::string& name : EvaluatedEncodingNames()) {
    const flow::RoutingSession session(
        g, 4, AuditOptions(name, symmetry::Heuristic::kS1));
    ASSERT_TRUE(session.ok()) << name << ": " << session.error();
    EXPECT_TRUE(
        HygieneFindings(*session.audit_cnf(), session.group_table()).empty())
        << name;
    const NetGroup& isolated = session.group_table().groups[3];
    if (name == "log") EXPECT_EQ(isolated.clause_begin, isolated.clause_end);
  }
}

TEST(NetGroupHygieneTest, EmptyGroupAtAnotherGroupsStartAccepted) {
  // An empty range [1, 1) shares its begin with [1, 2) but holds no clause.
  Cnf cnf(4);
  cnf.AddClause({Lit::Neg(1), Lit::Pos(0)});
  cnf.AddClause({Lit::Neg(3), Lit::Pos(0)});
  NetGroupTable table;
  table.first_activation_var = 1;
  table.groups = {MakeGroup(0, 1, 0, 1), MakeGroup(1, 2, 1, 1),
                  MakeGroup(2, 3, 1, 2)};
  EXPECT_TRUE(HygieneFindings(cnf, table).empty());
  std::swap(table.groups[1], table.groups[2]);
  EXPECT_TRUE(HygieneFindings(cnf, table).empty());
}

TEST(NetGroupHygieneTest, CrossGuardOfKnownGroupAccepted) {
  // Conflict-clause shape: own selector plus the partner's, both negated.
  Cnf cnf(4);
  cnf.AddClause({Lit::Neg(2), Lit::Pos(0)});                // group A
  cnf.AddClause({Lit::Neg(3), Lit::Neg(2), Lit::Pos(1)});   // B, guard on A
  NetGroupTable table;
  table.first_activation_var = 2;
  table.groups = {MakeGroup(0, 2, 0, 1), MakeGroup(1, 3, 1, 2)};
  EXPECT_TRUE(HygieneFindings(cnf, table).empty());
}

TEST(NetGroupHygieneTest, MissingOwnSelectorCaught) {
  Cnf cnf(3);
  cnf.AddClause({Lit::Pos(0), Lit::Pos(1)});
  NetGroupTable table;
  table.first_activation_var = 2;
  table.groups = {MakeGroup(0, 2, 0, 1)};
  EXPECT_EQ(HygieneFindings(cnf, table).size(), 1u);
}

TEST(NetGroupHygieneTest, PositiveSelectorCaught) {
  Cnf cnf(2);
  cnf.AddClause({Lit::Pos(1), Lit::Pos(0)});
  NetGroupTable table;
  table.first_activation_var = 1;
  table.groups = {MakeGroup(0, 1, 0, 1)};
  EXPECT_EQ(HygieneFindings(cnf, table).size(), 1u);
}

TEST(NetGroupHygieneTest, SecondCrossGuardCaught) {
  Cnf cnf(4);
  cnf.AddClause({Lit::Neg(1), Lit::Pos(0)});
  cnf.AddClause({Lit::Neg(2), Lit::Pos(0)});
  cnf.AddClause({Lit::Neg(3), Lit::Neg(1), Lit::Neg(2), Lit::Pos(0)});
  NetGroupTable table;
  table.first_activation_var = 1;
  table.groups = {MakeGroup(0, 1, 0, 1), MakeGroup(1, 2, 1, 2),
                  MakeGroup(2, 3, 2, 3)};
  EXPECT_EQ(HygieneFindings(cnf, table).size(), 1u);
}

TEST(NetGroupHygieneTest, UnknownActivationRegionVariableCaught) {
  // A negated activation-region literal that is no group's selector is a
  // defect even though it "looks like" a cross guard.
  Cnf cnf(6);
  cnf.AddClause({Lit::Neg(1), Lit::Neg(5), Lit::Pos(0)});
  NetGroupTable table;
  table.first_activation_var = 1;
  table.groups = {MakeGroup(0, 1, 0, 1)};
  EXPECT_EQ(HygieneFindings(cnf, table).size(), 1u);
}

TEST(NetGroupHygieneTest, OverlappingRangesCaught) {
  Cnf cnf(3);
  cnf.AddClause({Lit::Neg(1), Lit::Pos(0)});
  cnf.AddClause({Lit::Neg(2), Lit::Pos(0)});
  NetGroupTable table;
  table.first_activation_var = 1;
  table.groups = {MakeGroup(0, 1, 0, 2), MakeGroup(1, 2, 1, 2)};
  EXPECT_FALSE(HygieneFindings(cnf, table).empty());
}

TEST(NetGroupHygieneTest, SharedActivationVariableCaught) {
  Cnf cnf(2);
  cnf.AddClause({Lit::Neg(1), Lit::Pos(0)});
  cnf.AddClause({Lit::Neg(1), Lit::Neg(0)});
  NetGroupTable table;
  table.first_activation_var = 1;
  table.groups = {MakeGroup(0, 1, 0, 1), MakeGroup(1, 1, 1, 2)};
  EXPECT_FALSE(HygieneFindings(cnf, table).empty());
}

TEST(NetGroupHygieneTest, UngroupedNonUnitTouchingSelectorCaught) {
  Cnf cnf(2);
  cnf.AddClause({Lit::Neg(1), Lit::Pos(0)});
  cnf.AddClause({Lit::Pos(1), Lit::Pos(0)});  // outside every group
  NetGroupTable table;
  table.first_activation_var = 1;
  table.groups = {MakeGroup(0, 1, 0, 1)};
  EXPECT_EQ(HygieneFindings(cnf, table).size(), 1u);
}

TEST(NetGroupHygieneTest, UngroupedActivationUnitsAllowed) {
  Cnf cnf(2);
  cnf.AddClause({Lit::Neg(1), Lit::Pos(0)});
  cnf.AddClause({Lit::Pos(1)});   // activation toggle
  cnf.AddClause({Lit::Neg(1)});   // retirement toggle
  NetGroupTable table;
  table.first_activation_var = 1;
  table.groups = {MakeGroup(0, 1, 0, 1)};
  EXPECT_TRUE(HygieneFindings(cnf, table).empty());
}

// ---------------------------------------------------------------------------
// StreamingDimacsSink round trip: a session's grouped stream plus its
// activation toggles survives the DIMACS detour byte-exactly and lints
// clean.
// ---------------------------------------------------------------------------

TEST(GroupedDimacsRoundTripTest, SessionStreamSurvivesDimacsAndLintsClean) {
  Rng rng(7);
  const graph::Graph g = testutil::RandomGraph(rng, 10, 0.3);
  const int width = 3;
  const EncodingSpec& spec = GetEncoding("ITE-linear-2+muldirect");
  const flow::RoutingSession session(
      g, width, AuditOptions(spec.name, symmetry::Heuristic::kS1));
  ASSERT_TRUE(session.ok()) << session.error();

  const std::string path =
      ::testing::TempDir() + "/net_group_roundtrip.cnf";
  Cnf collected;
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    sat::StreamingDimacsSink dimacs(out, {"session stream round trip"});
    sat::CnfCollectorSink collector(collected);
    sat::TeeSink tee(dimacs, collector);
    const Cnf& stream = *session.audit_cnf();
    tee.EnsureVars(stream.num_vars());
    for (const Clause& clause : stream.clauses()) tee.EmitClause(clause);
    // Activation toggles: every group switched on, as Solve assumes them.
    // As units, each activation variable also appears positively in the
    // file.
    for (const NetGroup& group : session.group_table().groups) {
      tee.EmitUnit(Lit::Pos(group.activation));
    }
    ASSERT_TRUE(tee.Finish());

    // The file's formula must lint clean as a plain DIMACS CNF. The one
    // finding is informational: the lowest width guard g_1 only ever
    // appears negated (no rung implies it), so it is a pure variable.
    const auto parsed = sat::ParseDimacsFile(path);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->num_vars(), collected.num_vars());
    ASSERT_EQ(parsed->num_clauses(), collected.num_clauses());
    for (std::size_t c = 0; c < collected.num_clauses(); ++c) {
      EXPECT_EQ(parsed->clauses()[c], collected.clauses()[c]) << c;
    }
    analysis::AnalysisInput input;
    input.cnf = &*parsed;
    const analysis::AnalysisReport report =
        analysis::MakeDefaultRunner().Run(input);
    ASSERT_EQ(report.diagnostics.size(), 1u) << analysis::FormatText(report);
    EXPECT_EQ(report.diagnostics[0].pass, "cnf-pure-var");
    EXPECT_EQ(report.diagnostics[0].severity, analysis::Severity::kInfo);
    EXPECT_EQ(report.diagnostics[0].location,
              "var x" + std::to_string(session.layout().num_vars));

    // And the round-tripped formula keeps the flat encoder's verdict: the
    // toggles force every group active, and no width guard is forced.
    Solver parsed_solver;
    const SolveResult round_tripped =
        LoadCnf(*parsed, parsed_solver) ? parsed_solver.Solve()
                                        : SolveResult::kUnsat;
    EXPECT_EQ(round_tripped,
              SolveFlat(g, width, spec,
                        symmetry::SymmetrySequence(
                            g, width, symmetry::Heuristic::kS1)));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace satfr::encode
