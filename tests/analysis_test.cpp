// Tests for the satlint analysis layer: the runner, the CNF defect battery
// (each hand-built defect is caught by exactly the intended pass), the
// encoding-contract passes against deliberately corrupted encodings, the
// graph/flow passes, and the end-to-end acceptance runs over the MCNC
// instances with every evaluated encoding.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "analysis/encoding_passes.h"
#include "analysis/runner.h"
#include "encode/csp_to_cnf.h"
#include "encode/cube.h"
#include "encode/registry.h"
#include "flow/conflict_graph.h"
#include "flow/routing_session.h"
#include "fpga/device_graph.h"
#include "netlist/mcnc_suite.h"
#include "route/global_router.h"
#include "symmetry/symmetry.h"
#include "test_util.h"

namespace satfr::analysis {
namespace {

using sat::Cnf;
using sat::Lit;

AnalysisReport Lint(const AnalysisInput& input) {
  return MakeDefaultRunner().Run(input);
}

AnalysisReport LintCnf(const Cnf& cnf) {
  AnalysisInput input;
  input.cnf = &cnf;
  return Lint(input);
}

std::vector<Diagnostic> FindingsOf(const AnalysisReport& report,
                                   std::string_view pass) {
  std::vector<Diagnostic> found;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.pass == pass) {
      found.push_back(d);
    }
  }
  return found;
}

/// Asserts the report holds exactly one finding, from `pass`.
void ExpectOnlyFinding(const AnalysisReport& report, std::string_view pass) {
  ASSERT_EQ(report.diagnostics.size(), 1u)
      << FormatText(report) << "expected a single finding from " << pass;
  EXPECT_EQ(report.diagnostics[0].pass, pass);
}

graph::Graph Triangle() {
  graph::Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  return g;
}

// ---------------------------------------------------------------------------
// CNF defect battery: one hand-built defective CNF per pass.
// ---------------------------------------------------------------------------

TEST(CnfPassesTest, CleanCnfProducesNoFindings) {
  Cnf cnf(2);
  cnf.AddBinary(Lit::Pos(0), Lit::Neg(1));
  cnf.AddBinary(Lit::Neg(0), Lit::Pos(1));
  const AnalysisReport report = LintCnf(cnf);
  EXPECT_TRUE(report.diagnostics.empty()) << FormatText(report);
}

TEST(CnfPassesTest, TautologyCaughtByTautologyPassOnly) {
  Cnf cnf(3);
  cnf.AddTernary(Lit::Pos(0), Lit::Neg(0), Lit::Pos(1));
  cnf.AddBinary(Lit::Neg(1), Lit::Pos(2));
  cnf.AddBinary(Lit::Pos(1), Lit::Neg(2));
  const AnalysisReport report = LintCnf(cnf);
  ExpectOnlyFinding(report, "cnf-tautology");
  EXPECT_EQ(report.Count(Severity::kWarning), 1u);
}

TEST(CnfPassesTest, DuplicateClauseCaughtByDuplicatePassOnly) {
  Cnf cnf(2);
  cnf.AddBinary(Lit::Pos(0), Lit::Pos(1));
  cnf.AddBinary(Lit::Neg(0), Lit::Neg(1));
  cnf.AddBinary(Lit::Pos(1), Lit::Pos(0));  // same multiset, reordered
  const AnalysisReport report = LintCnf(cnf);
  ExpectOnlyFinding(report, "cnf-duplicate-clause");
  EXPECT_NE(report.diagnostics[0].message.find("clause 0"),
            std::string::npos);
}

TEST(CnfPassesTest, OutOfRangeVariableCaughtByVarRangePassOnly) {
  Cnf cnf(2);
  cnf.AddBinary(Lit::Pos(0), Lit::Neg(1));
  cnf.AddBinary(Lit::Neg(0), Lit::Pos(1));
  cnf.AddClauseUnchecked({Lit::Pos(0), Lit::Pos(5)});
  const AnalysisReport report = LintCnf(cnf);
  ExpectOnlyFinding(report, "cnf-var-range");
  EXPECT_TRUE(report.HasErrors());
}

TEST(CnfPassesTest, UnusedVariableCaughtByUnusedPassOnly) {
  Cnf cnf(3);
  cnf.AddBinary(Lit::Pos(0), Lit::Neg(1));
  cnf.AddBinary(Lit::Neg(0), Lit::Pos(1));
  const AnalysisReport report = LintCnf(cnf);
  ExpectOnlyFinding(report, "cnf-unused-var");
  EXPECT_EQ(report.diagnostics[0].location, "var x2");
}

TEST(CnfPassesTest, PureVariableCaughtByPurePassOnly) {
  Cnf cnf(2);
  cnf.AddBinary(Lit::Pos(0), Lit::Pos(1));
  cnf.AddBinary(Lit::Pos(0), Lit::Neg(1));
  const AnalysisReport report = LintCnf(cnf);
  ExpectOnlyFinding(report, "cnf-pure-var");
  EXPECT_EQ(report.diagnostics[0].location, "var x0");
}

TEST(CnfPassesTest, UnitSubsumptionCaughtBySubsumedPassOnly) {
  Cnf cnf(3);
  cnf.AddUnit(Lit::Pos(0));
  cnf.AddTernary(Lit::Pos(0), Lit::Pos(1), Lit::Neg(2));
  cnf.AddTernary(Lit::Neg(0), Lit::Neg(1), Lit::Pos(2));
  const AnalysisReport report = LintCnf(cnf);
  ExpectOnlyFinding(report, "cnf-subsumed-binary");
  EXPECT_EQ(report.diagnostics[0].location, "clause 1");
}

TEST(CnfPassesTest, BinarySubsumptionCaughtBySubsumedPassOnly) {
  Cnf cnf(3);
  cnf.AddBinary(Lit::Pos(0), Lit::Pos(1));
  cnf.AddTernary(Lit::Pos(0), Lit::Pos(1), Lit::Pos(2));
  cnf.AddTernary(Lit::Neg(0), Lit::Neg(1), Lit::Neg(2));
  const AnalysisReport report = LintCnf(cnf);
  ExpectOnlyFinding(report, "cnf-subsumed-binary");
  EXPECT_EQ(report.diagnostics[0].location, "clause 1");
}

// ---------------------------------------------------------------------------
// Runner behaviour: configuration, flood control, formatting.
// ---------------------------------------------------------------------------

TEST(RunnerTest, DisabledPassDoesNotRun) {
  Cnf cnf(2);
  cnf.AddTernary(Lit::Pos(0), Lit::Neg(0), Lit::Pos(1));
  cnf.AddBinary(Lit::Neg(1), Lit::Pos(0));
  cnf.AddBinary(Lit::Pos(1), Lit::Neg(0));
  AnalysisRunner runner = MakeDefaultRunner();
  PassConfig config;
  config.enabled = false;
  ASSERT_TRUE(runner.Configure("cnf-tautology", config));
  AnalysisInput input;
  input.cnf = &cnf;
  const AnalysisReport report = runner.Run(input);
  EXPECT_TRUE(FindingsOf(report, "cnf-tautology").empty());
  for (const PassOutcome& outcome : report.outcomes) {
    if (outcome.pass == "cnf-tautology") {
      EXPECT_FALSE(outcome.ran);
    }
  }
}

TEST(RunnerTest, SeverityOverridePromotesFindings) {
  Cnf cnf(2);
  cnf.AddTernary(Lit::Pos(0), Lit::Neg(0), Lit::Pos(1));
  cnf.AddBinary(Lit::Neg(1), Lit::Pos(0));
  cnf.AddBinary(Lit::Pos(1), Lit::Neg(0));
  AnalysisRunner runner = MakeDefaultRunner();
  PassConfig config;
  config.severity = Severity::kError;
  ASSERT_TRUE(runner.Configure("cnf-tautology", config));
  AnalysisInput input;
  input.cnf = &cnf;
  const AnalysisReport report = runner.Run(input);
  EXPECT_TRUE(report.HasErrors());
}

TEST(RunnerTest, UnknownPassNameRejected) {
  AnalysisRunner runner = MakeDefaultRunner();
  EXPECT_FALSE(runner.Configure("no-such-pass", PassConfig{}));
}

TEST(RunnerTest, FloodControlBoundsStoredFindings) {
  Cnf cnf(2);
  for (int i = 0; i < 151; ++i) cnf.AddBinary(Lit::Pos(0), Lit::Neg(1));
  cnf.AddBinary(Lit::Neg(0), Lit::Pos(1));
  const AnalysisReport report = LintCnf(cnf);
  const auto stored = FindingsOf(report, "cnf-duplicate-clause");
  // 150 duplicates found, 100 stored verbatim plus one summary line.
  EXPECT_EQ(stored.size(), DiagnosticSink::kMaxStoredPerPass + 1);
  for (const PassOutcome& outcome : report.outcomes) {
    if (outcome.pass == "cnf-duplicate-clause") {
      EXPECT_EQ(outcome.findings, 150u);
    }
  }
}

TEST(RunnerTest, JsonReportCarriesCountsAndEscapes) {
  Cnf cnf(1);
  cnf.AddClauseUnchecked({Lit::Pos(3)});
  const AnalysisReport report = LintCnf(cnf);
  const std::string json = FormatJson(report);
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pass\": \"cnf-var-range\""), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Encoding-contract passes.
// ---------------------------------------------------------------------------

TEST(EncodingPassesTest, ExpectedShapeMatchesEncoderForAllEncodings) {
  for (const encode::EncodingSpec& spec : encode::AllEncodings()) {
    for (int k = 1; k <= 13; ++k) {
      const encode::DomainEncoding domain = encode::EncodeDomain(spec, k);
      const ExpectedDomainShape shape = ComputeExpectedDomainShape(spec, k);
      EXPECT_EQ(domain.num_vars, shape.num_vars)
          << spec.name << " K=" << k;
      EXPECT_EQ(domain.structural.size(), shape.structural_clauses)
          << spec.name << " K=" << k;
    }
  }
}

TEST(EncodingPassesTest, CleanEncodingsHaveNoErrors) {
  const graph::Graph g = Triangle();
  for (const std::string& name : encode::EvaluatedEncodingNames()) {
    const encode::EncodingSpec spec = encode::GetEncoding(name);
    for (int k = 2; k <= 5; ++k) {
      for (const char* sym : {"none", "b1", "s1"}) {
        const auto sequence = symmetry::SymmetrySequence(
            g, k, *symmetry::HeuristicFromName(sym));
        const encode::EncodedColoring encoded =
            encode::EncodeColoring(g, k, spec, sequence);
        AnalysisInput input;
        input.cnf = &encoded.cnf;
        input.conflict_graph = &g;
        input.encoded = &encoded;
        input.spec = &spec;
        input.symmetry_sequence = &sequence;
        const AnalysisReport report = Lint(input);
        EXPECT_EQ(report.Count(Severity::kError), 0u)
            << name << " K=" << k << " sym=" << sym << "\n"
            << FormatText(report);
      }
    }
  }
}

/// Rebuilds `encoded.cnf` without the clause at `drop_index`.
void DropClause(encode::EncodedColoring& encoded, std::size_t drop_index) {
  Cnf pruned(encoded.cnf.num_vars());
  const auto& clauses = encoded.cnf.clauses();
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    if (i != drop_index) pruned.AddClause(clauses[i]);
  }
  encoded.cnf = std::move(pruned);
}

TEST(EncodingPassesTest, MissingConflictClauseDetected) {
  const graph::Graph g = Triangle();
  const encode::EncodingSpec spec = encode::GetEncoding("muldirect");
  encode::EncodedColoring encoded = encode::EncodeColoring(g, 3, spec);
  // Clause order is structural, conflict, symmetry: drop the first
  // conflict clause.
  DropClause(encoded, encoded.stats.structural_clauses);
  AnalysisInput input;
  input.cnf = &encoded.cnf;
  input.conflict_graph = &g;
  input.encoded = &encoded;
  input.spec = &spec;
  const AnalysisReport report = Lint(input);
  const auto findings = FindingsOf(report, "encoding-conflict-edges");
  ASSERT_FALSE(findings.empty()) << FormatText(report);
  EXPECT_NE(findings[0].message.find("missing"), std::string::npos);
  // The clause totals no longer match Table 1 either.
  EXPECT_FALSE(FindingsOf(report, "encoding-clause-counts").empty());
}

TEST(EncodingPassesTest, CrossVertexClauseOffTheGraphDetected) {
  graph::Graph path(3);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  const encode::EncodingSpec spec = encode::GetEncoding("muldirect");
  encode::EncodedColoring encoded = encode::EncodeColoring(path, 2, spec);
  // Forge a conflict clause between the non-adjacent vertices 0 and 2.
  encoded.cnf.AddClause(encode::ConflictClause(
      encoded.domain.value_cubes[0], encoded.vertex_offset[0],
      encoded.domain.value_cubes[0], encoded.vertex_offset[2]));
  AnalysisInput input;
  input.cnf = &encoded.cnf;
  input.conflict_graph = &path;
  input.encoded = &encoded;
  input.spec = &spec;
  const AnalysisReport report = Lint(input);
  const auto findings = FindingsOf(report, "encoding-conflict-edges");
  ASSERT_FALSE(findings.empty()) << FormatText(report);
  EXPECT_NE(findings[0].message.find("no conflict-graph edge"),
            std::string::npos);
}

TEST(EncodingPassesTest, MissingStructuralClauseDetected) {
  const graph::Graph g = Triangle();
  const encode::EncodingSpec spec = encode::GetEncoding("direct");
  encode::EncodedColoring encoded = encode::EncodeColoring(g, 3, spec);
  DropClause(encoded, 0);  // first structural clause of vertex 0
  AnalysisInput input;
  input.cnf = &encoded.cnf;
  input.conflict_graph = &g;
  input.encoded = &encoded;
  input.spec = &spec;
  const AnalysisReport report = Lint(input);
  const auto findings = FindingsOf(report, "encoding-vertex-structure");
  ASSERT_FALSE(findings.empty()) << FormatText(report);
  EXPECT_EQ(findings[0].location, "vertex 0");
}

TEST(EncodingPassesTest, StatsMismatchDetected) {
  const graph::Graph g = Triangle();
  const encode::EncodingSpec spec = encode::GetEncoding("log");
  encode::EncodedColoring encoded = encode::EncodeColoring(g, 3, spec);
  encoded.stats.conflict_clauses += 1;
  AnalysisInput input;
  input.cnf = &encoded.cnf;
  input.conflict_graph = &g;
  input.encoded = &encoded;
  input.spec = &spec;
  const AnalysisReport report = Lint(input);
  EXPECT_FALSE(FindingsOf(report, "encoding-clause-counts").empty())
      << FormatText(report);
}

TEST(EncodingPassesTest, ValidAssignmentGapDetected) {
  const graph::Graph g = Triangle();
  const encode::EncodingSpec spec = encode::GetEncoding("muldirect");
  encode::EncodedColoring encoded = encode::EncodeColoring(g, 3, spec);
  // Without its at-least-one clause, muldirect's all-false assignment
  // selects no value.
  encoded.domain.structural.clear();
  AnalysisInput input;
  input.encoded = &encoded;
  input.spec = &spec;
  const AnalysisReport report = Lint(input);
  const auto findings = FindingsOf(report, "encoding-domain-semantics");
  ASSERT_FALSE(findings.empty()) << FormatText(report);
  EXPECT_NE(findings[0].message.find("selects no value"), std::string::npos);
}

TEST(EncodingPassesTest, DuplicateValueCubeDetected) {
  const graph::Graph g = Triangle();
  const encode::EncodingSpec spec = encode::GetEncoding("direct");
  encode::EncodedColoring encoded = encode::EncodeColoring(g, 3, spec);
  encoded.domain.value_cubes[1] = encoded.domain.value_cubes[0];
  AnalysisInput input;
  input.encoded = &encoded;
  input.spec = &spec;
  const AnalysisReport report = Lint(input);
  const auto findings = FindingsOf(report, "encoding-domain-semantics");
  ASSERT_FALSE(findings.empty()) << FormatText(report);
  EXPECT_NE(findings[0].message.find("duplicates"), std::string::npos);
}

TEST(EncodingPassesTest, SymmetrySequenceMismatchDetected) {
  const graph::Graph g = Triangle();
  const encode::EncodingSpec spec = encode::GetEncoding("direct");
  const std::vector<graph::VertexId> encoded_seq = {0, 1};
  encode::EncodedColoring encoded =
      encode::EncodeColoring(g, 3, spec, encoded_seq);
  // Lint against a different sequence: vertex 2's restriction is absent.
  const std::vector<graph::VertexId> claimed_seq = {0, 2};
  AnalysisInput input;
  input.cnf = &encoded.cnf;
  input.conflict_graph = &g;
  input.encoded = &encoded;
  input.spec = &spec;
  input.symmetry_sequence = &claimed_seq;
  const AnalysisReport report = Lint(input);
  const auto findings = FindingsOf(report, "encoding-symmetry-prefix");
  ASSERT_FALSE(findings.empty()) << FormatText(report);
  EXPECT_NE(findings[0].message.find("missing restriction"),
            std::string::npos);
}

TEST(EncodingPassesTest, IllegalSymmetrySequencesDetected) {
  const graph::Graph g = Triangle();
  const encode::EncodingSpec spec = encode::GetEncoding("direct");
  const encode::EncodedColoring encoded = encode::EncodeColoring(g, 3, spec);
  AnalysisInput input;
  input.cnf = &encoded.cnf;
  input.conflict_graph = &g;
  input.encoded = &encoded;
  input.spec = &spec;

  const std::vector<graph::VertexId> too_long = {0, 1, 2};
  input.symmetry_sequence = &too_long;
  EXPECT_FALSE(FindingsOf(Lint(input), "encoding-symmetry-prefix").empty());

  const std::vector<graph::VertexId> out_of_range = {0, 7};
  input.symmetry_sequence = &out_of_range;
  EXPECT_FALSE(FindingsOf(Lint(input), "encoding-symmetry-prefix").empty());

  const std::vector<graph::VertexId> repeated = {1, 1};
  input.symmetry_sequence = &repeated;
  EXPECT_FALSE(FindingsOf(Lint(input), "encoding-symmetry-prefix").empty());
}

// ---------------------------------------------------------------------------
// Graph / flow passes.
// ---------------------------------------------------------------------------

route::GlobalRouting TwoNetRouting() {
  route::GlobalRouting routing;
  routing.two_pin_nets.resize(2);
  routing.two_pin_nets[0] = {/*parent=*/0, /*source=*/0, /*sink=*/1};
  routing.two_pin_nets[1] = {/*parent=*/1, /*source=*/2, /*sink=*/3};
  routing.routes = {{5, 6}, {6, 7}};  // share segment 6
  return routing;
}

TEST(GraphPassesTest, ConsistentRoutingAndGraphPass) {
  const route::GlobalRouting routing = TwoNetRouting();
  graph::Graph g(2);
  g.AddEdge(0, 1);
  AnalysisInput input;
  input.conflict_graph = &g;
  input.routing = &routing;
  const AnalysisReport report = Lint(input);
  EXPECT_TRUE(report.diagnostics.empty()) << FormatText(report);
}

TEST(GraphPassesTest, MissingConflictEdgeDetected) {
  const route::GlobalRouting routing = TwoNetRouting();
  const graph::Graph g(2);  // segment 6 is shared, but no edge
  AnalysisInput input;
  input.conflict_graph = &g;
  input.routing = &routing;
  const AnalysisReport report = Lint(input);
  const auto findings = FindingsOf(report, "flow-two-pin");
  ASSERT_FALSE(findings.empty()) << FormatText(report);
  EXPECT_NE(findings[0].message.find("no conflict edge"), std::string::npos);
}

TEST(GraphPassesTest, SameParentEdgeDetected) {
  route::GlobalRouting routing = TwoNetRouting();
  routing.two_pin_nets[1].parent = 0;  // now siblings: no edge allowed
  graph::Graph g(2);
  g.AddEdge(0, 1);
  AnalysisInput input;
  input.conflict_graph = &g;
  input.routing = &routing;
  const AnalysisReport report = Lint(input);
  const auto findings = FindingsOf(report, "flow-two-pin");
  ASSERT_FALSE(findings.empty()) << FormatText(report);
  EXPECT_NE(findings[0].message.find("multi-pin net"), std::string::npos);
}

TEST(GraphPassesTest, VacuousEdgeDetected) {
  route::GlobalRouting routing = TwoNetRouting();
  routing.routes[1] = {7};  // nothing shared any more
  graph::Graph g(2);
  g.AddEdge(0, 1);
  AnalysisInput input;
  input.conflict_graph = &g;
  input.routing = &routing;
  const AnalysisReport report = Lint(input);
  const auto findings = FindingsOf(report, "flow-two-pin");
  ASSERT_FALSE(findings.empty()) << FormatText(report);
  EXPECT_NE(findings[0].message.find("share no channel segment"),
            std::string::npos);
}

TEST(GraphPassesTest, VertexCountMismatchDetected) {
  const route::GlobalRouting routing = TwoNetRouting();
  graph::Graph g(3);
  g.AddEdge(0, 1);
  AnalysisInput input;
  input.conflict_graph = &g;
  input.routing = &routing;
  const AnalysisReport report = Lint(input);
  EXPECT_FALSE(FindingsOf(report, "flow-two-pin").empty())
      << FormatText(report);
}

TEST(CnfPassesTest, GroupedStreamReportsNoSelectorButPlantedBaseVar) {
  const netlist::McncBenchmark bench =
      netlist::GenerateMcncBenchmark("alu2");
  const fpga::Arch arch(bench.params.grid_size);
  const fpga::DeviceGraph device(arch);
  const route::GlobalRouting routing =
      route::RouteGlobally(device, bench.netlist, bench.placement);
  const graph::Graph conflict = flow::BuildConflictGraph(arch, routing);
  flow::RoutingSessionOptions options;
  options.audit = true;
  const flow::RoutingSession session(
      conflict, route::PeakCongestion(arch, routing), options);
  ASSERT_TRUE(session.ok()) << session.error();
  const int base_vars = session.layout().num_vars;
  ASSERT_GT(session.group_table().first_activation_var, base_vars);

  AnalysisInput input;
  input.cnf = session.audit_cnf();
  input.net_groups = &session.group_table();
  input.first_selector_var = base_vars;
  EXPECT_TRUE(FindingsOf(Lint(input), "cnf-pure-var").empty());

  // Plant a pure base variable: every negative occurrence of x0 flips
  // positive. Clause indices (and so the groups) stay as they were.
  Cnf planted(input.cnf->num_vars());
  for (sat::Clause clause : input.cnf->clauses()) {
    for (Lit& l : clause) {
      if (l.var() == 0) l = Lit::Pos(0);
    }
    planted.AddClause(std::move(clause));
  }
  input.cnf = &planted;
  const std::vector<Diagnostic> pure =
      FindingsOf(Lint(input), "cnf-pure-var");
  ASSERT_EQ(pure.size(), 1u);
  EXPECT_EQ(pure[0].location, "var x0");
}

// ---------------------------------------------------------------------------
// End-to-end: the MCNC acceptance sweep (what `satlint encode` runs).
// ---------------------------------------------------------------------------

TEST(SelfcheckTest, AcceptanceAllEvaluatedEncodingsOnMcncInstances) {
  for (const char* bench_name : {"tiny", "9symml"}) {
    const netlist::McncBenchmark bench =
        netlist::GenerateMcncBenchmark(bench_name);
    const fpga::Arch arch(bench.params.grid_size);
    const fpga::DeviceGraph device(arch);
    const route::GlobalRouting routing =
        route::RouteGlobally(device, bench.netlist, bench.placement);
    const graph::Graph conflict = flow::BuildConflictGraph(arch, routing);
    const int width = route::PeakCongestion(arch, routing);
    for (const symmetry::Heuristic heuristic :
         {symmetry::Heuristic::kNone, symmetry::Heuristic::kS1}) {
      const auto sequence =
          symmetry::SymmetrySequence(conflict, width, heuristic);
      for (const std::string& name : encode::EvaluatedEncodingNames()) {
        const encode::EncodingSpec spec = encode::GetEncoding(name);
        const encode::EncodedColoring encoded =
            encode::EncodeColoring(conflict, width, spec, sequence);
        AnalysisInput input;
        input.cnf = &encoded.cnf;
        input.conflict_graph = &conflict;
        input.encoded = &encoded;
        input.spec = &spec;
        input.symmetry_sequence = &sequence;
        input.routing = &routing;
        const AnalysisReport report = Lint(input);
        EXPECT_EQ(report.Count(Severity::kError), 0u)
            << bench_name << " " << name << " "
            << symmetry::ToString(heuristic) << "\n" << FormatText(report);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cube pass.
// ---------------------------------------------------------------------------

TEST(CubePassesTest, CubeDeterminismRunsCleanOnConflictGraph) {
  Rng rng(2025);
  const graph::Graph g = testutil::RandomGraph(rng, 10, 0.4);
  AnalysisInput input;
  input.conflict_graph = &g;
  const AnalysisReport report = Lint(input);
  bool ran = false;
  for (const PassOutcome& outcome : report.outcomes) {
    if (outcome.pass == "cube-determinism") ran = outcome.ran;
  }
  EXPECT_TRUE(ran);
  EXPECT_TRUE(FindingsOf(report, "cube-determinism").empty())
      << FormatText(report);
}

TEST(CubePassesTest, CubeDeterminismNeedsAGraph) {
  Cnf cnf(2);
  cnf.AddBinary(Lit::Pos(0), Lit::Pos(1));
  const AnalysisReport report = LintCnf(cnf);
  for (const PassOutcome& outcome : report.outcomes) {
    if (outcome.pass == "cube-determinism") {
      EXPECT_FALSE(outcome.ran);
    }
  }
}

}  // namespace
}  // namespace satfr::analysis
