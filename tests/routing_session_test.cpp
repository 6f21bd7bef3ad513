// Tests for the incremental routing session: lifecycle (encode once, solve
// many widths on assumptions), rip-up/re-route semantics, the incremental
// contract counters, error paths, the audit stream's hygiene, and the
// witness-first answers, reclamation of retired groups without a solve, and
// the randomized scripted-delta equivalence sweep against the fresh
// extract+encode+solve flow across every evaluated encoding and symmetry
// heuristic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/runner.h"
#include "common/rng.h"
#include "encode/cube.h"
#include "encode/registry.h"
#include "flow/conflict_graph.h"
#include "flow/detailed_router.h"
#include "flow/routing_session.h"
#include "fpga/device_graph.h"
#include "graph/coloring_bounds.h"
#include "graph/graph.h"
#include "netlist/mcnc_suite.h"
#include "route/global_router.h"
#include "symmetry/symmetry.h"
#include "test_util.h"

namespace satfr::flow {
namespace {

using graph::VertexId;
using sat::SolveResult;

graph::Graph Triangle() {
  graph::Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  return g;
}

/// An MCNC instance's conflict graph.
graph::Graph McncConflictGraph(const std::string& name) {
  const netlist::McncBenchmark bench = netlist::GenerateMcncBenchmark(name);
  const fpga::Arch arch(bench.params.grid_size);
  const fpga::DeviceGraph device(arch);
  const route::GlobalRouting routing =
      route::RouteGlobally(device, bench.netlist, bench.placement);
  return BuildConflictGraph(arch, routing);
}

/// The "tiny" instance's conflict graph — the sweep's workhorse.
graph::Graph TinyConflictGraph() { return McncConflictGraph("tiny"); }

/// Checks that a kSat result's tracks are a proper coloring of the
/// session's current active graph: every active net in [0, width), every
/// inactive net -1, endpoints of every active edge distinct.
void ExpectValidTracks(const RoutingSession& session,
                       const SessionSolveResult& result, int width) {
  ASSERT_EQ(result.status, SolveResult::kSat) << result.error;
  const graph::Graph current = session.ActiveConflictGraph();
  ASSERT_EQ(static_cast<int>(result.tracks.size()), current.num_vertices());
  for (VertexId v = 0; v < current.num_vertices(); ++v) {
    if (session.NetActive(v)) {
      EXPECT_GE(result.tracks[static_cast<std::size_t>(v)], 0) << v;
      EXPECT_LT(result.tracks[static_cast<std::size_t>(v)], width) << v;
    } else {
      EXPECT_EQ(result.tracks[static_cast<std::size_t>(v)], -1) << v;
    }
  }
  for (const auto& [u, v] : current.Edges()) {
    EXPECT_NE(result.tracks[static_cast<std::size_t>(u)],
              result.tracks[static_cast<std::size_t>(v)])
        << "edge " << u << "-" << v;
  }
}

TEST(RoutingSessionTest, SolvesAcrossWidthsWithoutReencoding) {
  const graph::Graph g = TinyConflictGraph();
  const int peak = graph::NumColorsUsed(graph::DsaturColoring(g));
  RoutingSession session(g, peak);
  ASSERT_TRUE(session.ok()) << session.error();

  const SessionSolveResult at_peak = session.Solve(peak);
  ExpectValidTracks(session, at_peak, peak);

  // Fresh flow agrees at every width down to 1.
  for (int width = peak; width >= 1; --width) {
    const SessionSolveResult incremental = session.Solve(width);
    const DetailedRouteResult fresh = RouteDetailedOnGraph(g, width);
    EXPECT_EQ(incremental.status, fresh.status) << "width " << width;
  }
  EXPECT_EQ(session.session_stats().full_encodes, 1u);
  EXPECT_EQ(session.session_stats().graph_extractions, 0u);
}

TEST(RoutingSessionTest, RipUpRelaxesAndRerouteRestores) {
  // A triangle needs 3 tracks; drop any net and 2 suffice; re-route it with
  // both original conflicts and 2 tracks are again too few.
  RoutingSession session(Triangle(), 3);
  ASSERT_TRUE(session.ok()) << session.error();
  EXPECT_EQ(session.Solve(2).status, SolveResult::kUnsat);

  ASSERT_TRUE(session.RipUp(0)) << session.error();
  EXPECT_FALSE(session.NetActive(0));
  EXPECT_EQ(session.num_active(), 2);
  const SessionSolveResult relaxed = session.Solve(2);
  ExpectValidTracks(session, relaxed, 2);

  ASSERT_TRUE(session.Reroute(0, {1, 2})) << session.error();
  EXPECT_TRUE(session.NetActive(0));
  EXPECT_EQ(session.Solve(2).status, SolveResult::kUnsat);
  const SessionSolveResult full = session.Solve(3);
  ExpectValidTracks(session, full, 3);

  const SessionStats& stats = session.session_stats();
  EXPECT_EQ(stats.full_encodes, 1u);
  EXPECT_EQ(stats.graph_extractions, 0u);
  EXPECT_EQ(stats.deltas_applied, 2u);
  // Only the explicit rip-up retired a group: re-routing an inactive net
  // has nothing to retire.
  EXPECT_EQ(stats.groups_retired, 1u);
}

TEST(RoutingSessionTest, RerouteChangesTheConflictSet) {
  // Path 0-1-2 plus edge 0-2 = triangle; re-route 2 to conflict only with
  // 1, making the graph a path, 2-colorable.
  RoutingSession session(Triangle(), 3);
  ASSERT_TRUE(session.ok()) << session.error();
  EXPECT_EQ(session.Solve(2).status, SolveResult::kUnsat);
  ASSERT_TRUE(session.Reroute(2, {1})) << session.error();

  const graph::Graph current = session.ActiveConflictGraph();
  EXPECT_EQ(current.num_edges(), 2u);
  ExpectValidTracks(session, session.Solve(2), 2);
}

TEST(RoutingSessionTest, ErrorPathsLeaveSessionUsable) {
  RoutingSession session(Triangle(), 3);
  ASSERT_TRUE(session.ok()) << session.error();

  EXPECT_FALSE(session.RipUp(-1));
  EXPECT_FALSE(session.RipUp(99));
  EXPECT_FALSE(session.Reroute(0, {0}));      // self-conflict
  EXPECT_FALSE(session.Reroute(0, {1, 1}));   // duplicate partner
  EXPECT_FALSE(session.Reroute(0, {42}));     // unknown partner
  ASSERT_TRUE(session.RipUp(1));
  EXPECT_FALSE(session.RipUp(1));             // already inactive
  EXPECT_FALSE(session.Reroute(0, {1}));      // partner inactive

  EXPECT_EQ(session.Solve(0).status, SolveResult::kUnknown);
  EXPECT_EQ(session.Solve(4).status, SolveResult::kUnknown);
  EXPECT_FALSE(session.Solve(4).error.empty());

  // None of the failures corrupted the session.
  EXPECT_TRUE(session.ok());
  EXPECT_EQ(session.session_stats().deltas_applied, 1u);
  ExpectValidTracks(session, session.Solve(2), 2);
}

TEST(RoutingSessionTest, AuditStreamSatisfiesNetGroupHygiene) {
  RoutingSessionOptions options;
  options.audit = true;
  RoutingSession session(Triangle(), 3, options);
  ASSERT_TRUE(session.ok()) << session.error();
  ASSERT_TRUE(session.RipUp(0));
  ASSERT_TRUE(session.Reroute(0, {1}));
  ASSERT_TRUE(session.Reroute(2, {0, 1}));
  session.Solve(3);

  ASSERT_NE(session.audit_cnf(), nullptr);
  analysis::AnalysisInput input;
  input.cnf = session.audit_cnf();
  input.net_groups = &session.group_table();
  const analysis::AnalysisReport report =
      analysis::MakeDefaultRunner().Run(input);
  for (const analysis::Diagnostic& d : report.diagnostics) {
    EXPECT_NE(d.pass, "net-group-hygiene") << analysis::FormatText(report);
  }
}

/// FNV-1a over a session's audit stream: the clause count, every clause
/// (length, then literal codes), and the group table.
std::uint64_t AuditStreamDigest(const RoutingSession& session) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  const sat::Cnf& cnf = *session.audit_cnf();
  mix(static_cast<std::int64_t>(cnf.num_clauses()));
  for (const sat::Clause& clause : cnf.clauses()) {
    mix(static_cast<std::int64_t>(clause.size()));
    for (const sat::Lit lit : clause) mix(lit.code());
  }
  const encode::NetGroupTable& table = session.group_table();
  mix(table.first_activation_var);
  for (const encode::NetGroup& group : table.groups) {
    mix(group.net);
    mix(group.epoch);
    mix(group.activation);
    mix(static_cast<std::int64_t>(group.clause_begin));
    mix(static_cast<std::int64_t>(group.clause_end));
  }
  return hash;
}

// Pins the constructor's clause stream (ladder, groups, variable
// numbering): it is every session's formula, so a change to it changes
// what each solve searches and must be deliberate.
TEST(RoutingSessionTest, AuditStreamMatchesRecordedDigest) {
  RoutingSessionOptions options;
  options.encoding = encode::GetEncoding("ITE-linear-2+muldirect");
  options.heuristic = symmetry::Heuristic::kS1;
  options.audit = true;
  RoutingSession session(TinyConflictGraph(), /*max_width=*/6, options);
  ASSERT_TRUE(session.ok()) << session.error();
  EXPECT_EQ(session.audit_cnf()->num_clauses(), 187u);
  EXPECT_EQ(AuditStreamDigest(session), 0xc4a1a60a9076a121ull)
      << "0x" << std::hex << AuditStreamDigest(session);
}

TEST(RoutingSessionTest, WidthLadderEmitsGuardedNegatedCubes) {
  // Triangle plus a pendant vertex, K = 5: the ladder sits right after the
  // base layout, guards g_1..g_4 numbered consecutively, ahead of every
  // net group.
  graph::Graph g = Triangle();
  g.AddVertex();
  g.AddEdge(2, 3);
  const int k = 5;
  const std::size_t num_vertices = 4;
  for (const char* name : {"muldirect", "log", "ITE-linear-2+muldirect"}) {
    RoutingSessionOptions options;
    options.encoding = encode::GetEncoding(name);
    options.audit = true;
    RoutingSession session(g, k, options);
    ASSERT_TRUE(session.ok()) << session.error();
    const encode::ColoringLayout& layout = session.layout();
    const sat::Cnf& cnf = *session.audit_cnf();
    const auto guard = [&layout](int w) {
      return static_cast<sat::Var>(layout.num_vars + (w - 1));
    };
    EXPECT_EQ(session.group_table().first_activation_var, guard(k)) << name;
    const std::size_t binaries = static_cast<std::size_t>(k - 2);
    const std::size_t per_vertex =
        static_cast<std::size_t>(k - 1) * num_vertices;
    ASSERT_EQ(session.group_table().groups.front().clause_begin,
              binaries + per_vertex)
        << name;

    // Per width, in emission order: g_W -> g_{W+1}, then one
    // ~cube_v(W) \/ ~g_W per vertex.
    std::size_t i = 0;
    for (int w = 1; w < k; ++w) {
      if (w + 1 < k) {
        EXPECT_EQ(cnf.clauses()[i++],
                  (sat::Clause{sat::Lit::Neg(guard(w)),
                               sat::Lit::Pos(guard(w + 1))}))
            << name << " W=" << w;
      }
      for (const int offset : layout.vertex_offset) {
        sat::Clause expected = encode::NegateCube(
            layout.domain.value_cubes[static_cast<std::size_t>(w)], offset);
        expected.push_back(sat::Lit::Neg(guard(w)));
        EXPECT_EQ(cnf.clauses()[i++], expected) << name << " W=" << w;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Witness-first solving and reclamation at retirement.
// ---------------------------------------------------------------------------

/// Expects the solver's search counters not to move between two snapshots.
void ExpectNoSearch(const sat::SolverStats& before,
                    const sat::SolverStats& after) {
  EXPECT_EQ(after.conflicts, before.conflicts);
  EXPECT_EQ(after.decisions, before.decisions);
  EXPECT_EQ(after.propagations, before.propagations);
}

TEST(RoutingSessionWitnessTest, RerouteToOriginalPartnersAnswersFromWitness) {
  const graph::Graph g = TinyConflictGraph();
  const int peak = graph::NumColorsUsed(graph::DsaturColoring(g));
  RoutingSession session(g, peak);
  ASSERT_TRUE(session.ok()) << session.error();

  const SessionSolveResult first = session.Solve(peak);
  EXPECT_FALSE(first.witness);  // no hints before the first SAT answer
  ExpectValidTracks(session, first, peak);

  VertexId net = 0;
  while (g.Neighbors(net).empty()) ++net;
  ASSERT_TRUE(session.RipUp(net)) << session.error();
  sat::SolverStats before = session.solver().stats();
  const SessionSolveResult ripped = session.Solve(peak);
  ExpectNoSearch(before, session.solver().stats());
  EXPECT_TRUE(ripped.witness);
  EXPECT_EQ(ripped.solve_seconds, 0.0);
  ExpectValidTracks(session, ripped, peak);

  ASSERT_TRUE(session.Reroute(net, g.Neighbors(net))) << session.error();
  before = session.solver().stats();
  const SessionSolveResult restored = session.Solve(peak);
  ExpectNoSearch(before, session.solver().stats());
  EXPECT_TRUE(restored.witness);
  ExpectValidTracks(session, restored, peak);
  EXPECT_EQ(restored.tracks, first.tracks);

  const SessionStats& stats = session.session_stats();
  EXPECT_EQ(stats.solves, 3u);
  EXPECT_EQ(stats.witness_answers, 2u);
}

TEST(RoutingSessionWitnessTest, CollidingHintFallsBackToTheSolver) {
  // Edge 0-1 only, two tracks: net 2 is unconstrained, so its hint equals
  // one of the others'. Re-routing it onto that net makes the hints clash.
  graph::Graph g(3);
  g.AddEdge(0, 1);
  RoutingSession session(g, 2);
  ASSERT_TRUE(session.ok()) << session.error();
  const SessionSolveResult first = session.Solve(2);
  ExpectValidTracks(session, first, 2);
  const VertexId twin = first.tracks[2] == first.tracks[0] ? 0 : 1;
  ASSERT_EQ(first.tracks[2], first.tracks[static_cast<std::size_t>(twin)]);

  ASSERT_TRUE(session.Reroute(2, {twin})) << session.error();
  const std::uint64_t decisions = session.solver().stats().decisions;
  const SessionSolveResult rerouted = session.Solve(2);
  EXPECT_FALSE(rerouted.witness);
  EXPECT_GT(session.solver().stats().decisions, decisions);
  ExpectValidTracks(session, rerouted, 2);

  // The solver's answer is the new witness.
  const SessionSolveResult again = session.Solve(2);
  EXPECT_TRUE(again.witness);
  EXPECT_EQ(again.tracks, rerouted.tracks);
}

TEST(RoutingSessionWitnessTest, WidthBelowTheHighestHintFallsBackToTheSolver) {
  const graph::Graph g = TinyConflictGraph();
  const int peak = graph::NumColorsUsed(graph::DsaturColoring(g));
  RoutingSession session(g, peak);
  ASSERT_TRUE(session.ok()) << session.error();
  const SessionSolveResult first = session.Solve(peak);
  ExpectValidTracks(session, first, peak);
  const int highest =
      *std::max_element(first.tracks.begin(), first.tracks.end());
  ASSERT_GE(highest, 1);

  // Track `highest` is out of range at width `highest`.
  const SessionSolveResult below = session.Solve(highest);
  EXPECT_FALSE(below.witness);
  EXPECT_EQ(below.status, RouteDetailedOnGraph(g, highest).status);
  if (below.status == SolveResult::kSat) {
    ExpectValidTracks(session, below, highest);
  }
}

TEST(RoutingSessionWitnessTest, TriangleAtWidthTwoStaysUnsat) {
  RoutingSession session(Triangle(), 3);
  ASSERT_TRUE(session.ok()) << session.error();
  ExpectValidTracks(session, session.Solve(3), 3);
  const SessionSolveResult tight = session.Solve(2);
  EXPECT_EQ(tight.status, SolveResult::kUnsat);
  EXPECT_FALSE(tight.witness);

  // A rip-up and a re-route to the same partners: the hints still route
  // width 3, and width 2 is still refuted by the solver.
  ASSERT_TRUE(session.RipUp(0));
  ASSERT_TRUE(session.Reroute(0, {1, 2}));
  EXPECT_TRUE(session.Solve(3).witness);
  const SessionSolveResult refuted = session.Solve(2);
  EXPECT_EQ(refuted.status, SolveResult::kUnsat);
  EXPECT_FALSE(refuted.witness);
  EXPECT_EQ(session.session_stats().witness_answers, 1u);
}

// A witness check examines only the edges the edit could have added: after
// the first solver answer, rip-ups add none, and a re-routed net adds the
// edges it owns. The decoded model's own full check is not witness work.
TEST(RoutingSessionWitnessTest, WitnessCheckExaminesOnlyTheReroutedNetsEdges) {
  const graph::Graph g = McncConflictGraph("alu2");
  const int wstar = 6;
  const int peak = graph::NumColorsUsed(graph::DsaturColoring(g));
  ASSERT_GE(peak, wstar);
  RoutingSession session(g, peak);
  ASSERT_TRUE(session.ok()) << session.error();
  const SessionStats& stats = session.session_stats();

  const SessionSolveResult first = session.Solve(wstar);
  EXPECT_FALSE(first.witness);
  ExpectValidTracks(session, first, wstar);
  EXPECT_EQ(stats.witness_edges_checked, 0u);

  // Two nets that do not conflict, so `a` can get all its partners back
  // while `b` is still ripped up.
  VertexId a = 0;
  while (g.Neighbors(a).size() < 2) ++a;
  VertexId b = 0;
  while (b == a || g.HasEdge(a, b)) ++b;
  ASSERT_TRUE(session.RipUp(a)) << session.error();
  ASSERT_TRUE(session.RipUp(b)) << session.error();
  const SessionSolveResult ripped = session.Solve(wstar);
  EXPECT_TRUE(ripped.witness);
  ExpectValidTracks(session, ripped, wstar);
  EXPECT_EQ(stats.witness_edges_checked, 0u);

  const std::vector<VertexId>& partners = g.Neighbors(a);
  ASSERT_TRUE(session.Reroute(a, partners)) << session.error();
  const SessionSolveResult rerouted = session.Solve(wstar);
  EXPECT_TRUE(rerouted.witness);
  ExpectValidTracks(session, rerouted, wstar);
  EXPECT_EQ(stats.witness_edges_checked, partners.size());
  EXPECT_EQ(stats.witness_answers, 2u);
}

// The incremental witness check must reach the verdict of a full check on
// every Solve. The test keeps its own mirror of the session's edges and of
// the tracks of its last SAT answer (a ripped-up net keeps its track, like
// the session's hint), and decides each witness from the whole mirror.
// Seeded ops rip nets up, re-route them to their original partners or to a
// changed set (one partner dropped, one sharing the net's track added, so
// hints collide), revive ripped-up nets, and solve at W*-1, W* and
// max_width.
TEST(RoutingSessionWitnessTest, IncrementalCheckMatchesAFullCheck) {
  struct Cell {
    const char* circuit;
    int min_width;  // W*
  };
  const Cell cells[] = {{"alu2", 6}, {"too_large", 8}};
  constexpr int kOps = 500;
  Rng root(0x3a17c0ffee5eed01ull);
  std::uint64_t witness_answers = 0;
  std::uint64_t collisions = 0;  // solves whose hints were all in range but
                                 // joined by an edge

  for (const Cell& cell : cells) {
    const graph::Graph g = McncConflictGraph(cell.circuit);
    const int peak = graph::NumColorsUsed(graph::DsaturColoring(g));
    ASSERT_GE(peak, cell.min_width) << cell.circuit;
    const int n = g.num_vertices();
    const auto at = [n](VertexId u, VertexId v) {
      return static_cast<std::size_t>(u) * static_cast<std::size_t>(n) +
             static_cast<std::size_t>(v);
    };
    for (const char* encoding : {"muldirect", "ITE-linear-2+muldirect"}) {
      const std::string label = std::string(cell.circuit) + " " + encoding;
      RoutingSessionOptions options;
      options.encoding = encode::GetEncoding(encoding);
      options.heuristic = symmetry::Heuristic::kS1;
      RoutingSession session(g, peak, options);
      ASSERT_TRUE(session.ok()) << label << ": " << session.error();
      Rng rng = root.Fork();

      // The mirror.
      std::vector<char> active(static_cast<std::size_t>(n), 1);
      std::vector<char> edge(at(n, 0), 0);  // symmetric adjacency matrix
      std::vector<int> track(static_cast<std::size_t>(n), -1);
      for (const auto& [u, v] : g.Edges()) edge[at(u, v)] = edge[at(v, u)] = 1;
      const auto is_active = [&](VertexId v) {
        return active[static_cast<std::size_t>(v)] != 0;
      };
      const auto track_of = [&](VertexId v) {
        return track[static_cast<std::size_t>(v)];
      };
      const auto random_net = [&](bool want_active) {
        std::vector<VertexId> nets;
        for (VertexId v = 0; v < n; ++v) {
          if (is_active(v) == want_active) nets.push_back(v);
        }
        return nets.empty() ? VertexId{-1}
                            : nets[static_cast<std::size_t>(
                                  rng.NextBelow(nets.size()))];
      };
      const auto rip_up = [&](VertexId v) {
        active[static_cast<std::size_t>(v)] = 0;
        for (VertexId u = 0; u < n; ++u) edge[at(u, v)] = edge[at(v, u)] = 0;
      };
      // Original partners that are active; `changed` drops one of them and
      // adds an active net on the same track, when there is one.
      const auto partners_for = [&](VertexId v, bool changed) {
        std::vector<VertexId> partners;
        for (const VertexId u : g.Neighbors(v)) {
          if (is_active(u)) partners.push_back(u);
        }
        if (!changed) return partners;
        if (!partners.empty()) {
          partners.erase(partners.begin() + static_cast<std::ptrdiff_t>(
                                                rng.NextBelow(partners.size())));
        }
        for (VertexId u = 0; u < n; ++u) {
          if (u != v && is_active(u) && track_of(u) == track_of(v) &&
              std::find(partners.begin(), partners.end(), u) ==
                  partners.end()) {
            partners.push_back(u);
            break;
          }
        }
        return partners;
      };
      const auto reroute = [&](VertexId v, bool changed) {
        const std::vector<VertexId> partners = partners_for(v, changed);
        ASSERT_TRUE(session.Reroute(v, partners)) << label << ": "
                                                  << session.error();
        rip_up(v);
        active[static_cast<std::size_t>(v)] = 1;
        for (const VertexId u : partners) edge[at(u, v)] = edge[at(v, u)] = 1;
      };
      // The full check on the mirror: every active net on a track in
      // [0, width), no edge joining two equal tracks.
      const auto hints_in_range = [&](int width) {
        for (VertexId v = 0; v < n; ++v) {
          if (is_active(v) && (track_of(v) < 0 || track_of(v) >= width)) {
            return false;
          }
        }
        return true;
      };
      const auto proper = [&](const std::vector<int>& tracks) {
        for (VertexId u = 0; u < n; ++u) {
          for (VertexId v = u + 1; v < n; ++v) {
            if (edge[at(u, v)] && tracks[static_cast<std::size_t>(u)] ==
                                      tracks[static_cast<std::size_t>(v)]) {
              return false;
            }
          }
        }
        return true;
      };

      std::uint64_t session_witnesses = 0;
      for (int op = 0; op < kOps; ++op) {
        const std::uint64_t kind = rng.NextBelow(10);
        if (kind <= 1) {
          const VertexId v = random_net(true);
          if (v < 0 || session.num_active() < 2) continue;
          ASSERT_TRUE(session.RipUp(v)) << label << ": " << session.error();
          rip_up(v);
        } else if (kind <= 3) {
          const VertexId v = random_net(true);
          if (v >= 0) reroute(v, /*changed=*/kind == 3);
        } else if (kind <= 5) {
          const VertexId v = random_net(false);
          if (v >= 0) reroute(v, /*changed=*/kind == 5);
        } else {
          const int widths[] = {cell.min_width - 1, cell.min_width, peak};
          const int width = widths[rng.NextBelow(3)];
          const bool in_range = hints_in_range(width);
          const bool expected = in_range && proper(track);
          collisions += in_range && !expected ? 1 : 0;
          const SessionSolveResult r = session.Solve(width);
          ASSERT_TRUE(r.error.empty()) << label << ": " << r.error;
          ASSERT_EQ(r.witness, expected)
              << label << " op " << op << " width " << width;
          ASSERT_NE(r.status, SolveResult::kUnknown) << label;
          if (r.status != SolveResult::kSat) continue;
          ASSERT_EQ(static_cast<int>(r.tracks.size()), n) << label;
          for (VertexId v = 0; v < n; ++v) {
            const int t = r.tracks[static_cast<std::size_t>(v)];
            if (is_active(v)) {
              ASSERT_TRUE(t >= 0 && t < width) << label << " net " << v;
              track[static_cast<std::size_t>(v)] = t;
            } else {
              ASSERT_EQ(t, -1) << label << " net " << v;
            }
          }
          ASSERT_TRUE(proper(r.tracks)) << label << " op " << op;
          session_witnesses += r.witness ? 1 : 0;
        }
      }
      EXPECT_EQ(session.session_stats().witness_answers, session_witnesses)
          << label;
      witness_answers += session_witnesses;
    }
  }
  // Both witness verdicts, and dirty edges that collide, are exercised.
  EXPECT_GT(witness_answers, 0u);
  EXPECT_GT(collisions, 0u);
}

// Retiring a group reclaims it without waiting for a search: a session
// absorbing many deltas between solves keeps a bounded clause store. (With
// reclamation left to the next search, the store grows with every delta:
// 7.5x its size at open after these 1,000.)
TEST(RoutingSessionTest, DeltasWithoutSolvesKeepClauseMemoryBounded) {
  const graph::Graph g = McncConflictGraph("alu2");
  const int peak = graph::NumColorsUsed(graph::DsaturColoring(g));
  RoutingSession session(g, peak);
  ASSERT_TRUE(session.ok()) << session.error();
  const std::size_t opened = session.solver().ClauseMemoryBytes();

  // 500 rip-up / re-route pairs over the nets in turn, each re-routed to
  // its original partners, so the live formula never changes size.
  for (int delta = 0; delta < 1000; delta += 2) {
    const VertexId net = (delta / 2) % g.num_vertices();
    ASSERT_TRUE(session.RipUp(net)) << session.error();
    ASSERT_TRUE(session.Reroute(net, g.Neighbors(net))) << session.error();
  }
  EXPECT_EQ(session.session_stats().deltas_applied, 1000u);
  EXPECT_EQ(session.session_stats().solves, 0u);
  EXPECT_LE(session.solver().ClauseMemoryBytes(), 2 * opened)
      << "opened at " << opened << " bytes, now "
      << session.solver().ClauseMemoryBytes();
}

// Every re-route takes a fresh selector, past the pool reserved at open
// after the first one; the solver then grows its per-variable arrays
// geometrically instead of moving them on every call. Thousands of
// re-routes later the solver state is still consistent and the session
// still answers.
TEST(RoutingSessionTest, ReroutesPastTheSelectorPoolKeepInvariants) {
  const graph::Graph g = McncConflictGraph("alu2");
  const int peak = graph::NumColorsUsed(graph::DsaturColoring(g));
  RoutingSession session(g, peak);
  ASSERT_TRUE(session.ok()) << session.error();
  const int opened_vars = session.solver().num_vars();

  constexpr int kReroutes = 3000;
  for (int i = 0; i < kReroutes; ++i) {
    const VertexId net = i % g.num_vertices();
    ASSERT_TRUE(session.RipUp(net)) << session.error();
    ASSERT_TRUE(session.Reroute(net, g.Neighbors(net))) << session.error();
  }
  EXPECT_EQ(session.solver().num_vars(), opened_vars + kReroutes);
  std::string error;
  EXPECT_TRUE(session.solver().CheckInvariants(&error)) << error;
  EXPECT_EQ(session.Solve(peak).status, SolveResult::kSat);
  EXPECT_TRUE(session.solver().CheckInvariants(&error)) << error;
}

// ---------------------------------------------------------------------------
// Randomized scripted-delta equivalence sweep: after every delta the
// session's verdict must match a fresh extract+encode+solve of its own
// active graph, for every evaluated encoding and symmetry heuristic.
// ---------------------------------------------------------------------------

struct ScriptedDelta {
  bool rip_only = false;
  VertexId net = -1;
  std::vector<VertexId> partners;
};

/// Plans a random valid delta against the session's current state, or
/// nothing if none is possible (all nets inactive).
bool PlanDelta(const RoutingSession& session, Rng& rng, ScriptedDelta* out) {
  std::vector<VertexId> active;
  std::vector<VertexId> inactive;
  for (VertexId v = 0; v < session.num_nets(); ++v) {
    (session.NetActive(v) ? active : inactive).push_back(v);
  }
  if (!inactive.empty() && rng.NextBool(0.3)) {
    // Revive an inactive net against a few random active partners.
    out->rip_only = false;
    out->net = inactive[rng.NextBelow(inactive.size())];
    const auto order = rng.Permutation(static_cast<std::uint32_t>(
        active.size()));
    const std::size_t take = std::min<std::size_t>(active.size(), 3);
    out->partners.assign(order.begin(),
                         order.begin() + static_cast<std::ptrdiff_t>(take));
    for (auto& p : out->partners) p = active[p];
    return true;
  }
  if (active.empty()) return false;
  out->net = active[rng.NextBelow(active.size())];
  if (active.size() > 1 && rng.NextBool(0.5)) {
    out->rip_only = true;
    return true;
  }
  // Re-route against the current neighborhood with one conflict dropped.
  out->rip_only = false;
  const graph::Graph current = session.ActiveConflictGraph();
  out->partners = current.Neighbors(out->net);
  if (!out->partners.empty()) {
    out->partners.erase(out->partners.begin() +
                        static_cast<std::ptrdiff_t>(
                            rng.NextBelow(out->partners.size())));
  }
  return true;
}

TEST(RoutingSessionEquivalenceSweep, MatchesFreshFlowAcrossAllEncodings) {
  const graph::Graph g = TinyConflictGraph();
  const int peak = graph::NumColorsUsed(graph::DsaturColoring(g));
  Rng root(0xf9a0b1c2d3e4f500ull);
  std::uint64_t witness_answers = 0;
  std::uint64_t solver_answers = 0;

  for (const std::string& name : encode::EvaluatedEncodingNames()) {
    for (const auto heuristic :
         {symmetry::Heuristic::kNone, symmetry::Heuristic::kB1,
          symmetry::Heuristic::kS1}) {
      RoutingSessionOptions options;
      options.encoding = encode::GetEncoding(name);
      options.heuristic = heuristic;
      RoutingSession session(g, peak, options);
      ASSERT_TRUE(session.ok()) << name << ": " << session.error();

      Rng rng = root.Fork();
      for (int step = 0; step < 4; ++step) {
        ScriptedDelta delta;
        if (!PlanDelta(session, rng, &delta)) break;
        if (delta.rip_only) {
          ASSERT_TRUE(session.RipUp(delta.net))
              << name << " step " << step << ": " << session.error();
        } else {
          ASSERT_TRUE(session.Reroute(delta.net, delta.partners))
              << name << " step " << step << ": " << session.error();
        }
        // Probe a width near the current chromatic ceiling so both SAT and
        // UNSAT verdicts occur along the script.
        const graph::Graph current = session.ActiveConflictGraph();
        const int tight =
            std::max(1, graph::NumColorsUsed(graph::DsaturColoring(current)) -
                            1 + static_cast<int>(rng.NextBelow(2)));
        const int width = std::min(tight, peak);

        const SessionSolveResult incremental = session.Solve(width);
        DetailedRouteOptions fresh_options;
        fresh_options.encoding = options.encoding;
        fresh_options.heuristic = heuristic;
        const DetailedRouteResult fresh =
            RouteDetailedOnGraph(current, width, fresh_options);
        ASSERT_EQ(incremental.status, fresh.status)
            << name << " sym=" << static_cast<int>(heuristic) << " step "
            << step << " width " << width;
        if (incremental.status == SolveResult::kSat) {
          ExpectValidTracks(session, incremental, width);
        }
        ++(incremental.witness ? witness_answers : solver_answers);
      }
      EXPECT_EQ(session.session_stats().full_encodes, 1u) << name;
      EXPECT_EQ(session.session_stats().graph_extractions, 0u) << name;
    }
  }
  // Both answer paths are covered by the equivalence check.
  EXPECT_GT(witness_answers, 0u);
  EXPECT_GT(solver_answers, 0u);
}

}  // namespace
}  // namespace satfr::flow
