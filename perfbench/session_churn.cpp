// session_churn: one thread, closed loop over resident incremental
// sessions. Set-up opens one flow::RoutingSession (ITE-linear-2+muldirect/s1,
// encoded once at the DSATUR width) for each of the eight Table-2 circuits.
// A pass visits the sessions in a seeded order, one design at a time as a
// user edits them: it refutes W*-1 and routes at W*, then streams a seeded
// list of RipUp / Reroute / Solve(W*) ops on that session before moving to
// the next; one query is one op. Every pass starts from freshly opened
// sessions, so all passes do the same work. No seeded variants: the seed already varies the nets every op
// touches.
//
// The benchmark keeps its own mirror of each session's active edge set. A
// re-route reconnects a net to its original partners, so the mirror is
// always the original graph minus the ripped nets, and Solve(W*) must be
// SAT. SAT answers are checked against the mirror; UNSAT answers are
// re-decided after the timed pass by a fresh RouteDetailedOnGraph on the
// mirrored graph.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "flow/detailed_router.h"
#include "flow/routing_session.h"
#include "workloads.h"

namespace perfbench {

namespace {

using satfr::graph::VertexId;
using satfr::sat::SolveResult;

// 6 ops a cycle, 8 sessions: 5152 ops a pass, so the p99 tail draws on
// many distinct rip-ups rather than on repeats of a few.
constexpr std::size_t kCyclesPerSession = 107;
constexpr double kTailPct = 99.0;
constexpr int kMinPasses = 3;
constexpr double kTimeoutSeconds = 60.0;

enum class OpKind { kRipUp, kReroute, kSolve };

struct Op {
  OpKind kind = OpKind::kSolve;
  std::size_t session = 0;
  VertexId net = 0;
  std::vector<VertexId> conflicts;  // kReroute
  int width = 0;                    // kSolve
};

/// The benchmark's own copy of one session's current conflict graph.
struct Mirror {
  std::vector<std::vector<VertexId>> adj;
  std::vector<char> inactive;

  explicit Mirror(const satfr::graph::Graph& g)
      : adj(static_cast<std::size_t>(g.num_vertices())),
        inactive(adj.size(), 0) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      adj[static_cast<std::size_t>(v)] = g.Neighbors(v);
    }
  }
  void Detach(VertexId n) {
    for (const VertexId u : adj[static_cast<std::size_t>(n)]) {
      auto& back = adj[static_cast<std::size_t>(u)];
      back.erase(std::find(back.begin(), back.end(), n));
    }
    adj[static_cast<std::size_t>(n)].clear();
  }
  void Apply(const Op& op) {
    if (op.kind == OpKind::kSolve) return;
    Detach(op.net);
    inactive[static_cast<std::size_t>(op.net)] = op.kind == OpKind::kRipUp;
    if (op.kind == OpKind::kReroute) {
      adj[static_cast<std::size_t>(op.net)] = op.conflicts;
      for (const VertexId u : op.conflicts) {
        adj[static_cast<std::size_t>(u)].push_back(op.net);
      }
    }
  }
  satfr::graph::Graph ToGraph() const {
    satfr::graph::Graph g(static_cast<VertexId>(adj.size()));
    for (std::size_t v = 0; v < adj.size(); ++v) {
      for (const VertexId u : adj[v]) g.AddEdge(static_cast<VertexId>(v), u);
    }
    return g;
  }
  std::string Check(const std::vector<int>& tracks, int width) const {
    if (tracks.size() != adj.size()) return "track vector has wrong size";
    for (std::size_t v = 0; v < adj.size(); ++v) {
      if (inactive[v]) {
        if (tracks[v] != -1) return "inactive net has a track";
        continue;
      }
      if (tracks[v] < 0 || tracks[v] >= width) return "track out of range";
      for (const VertexId u : adj[v]) {
        if (tracks[static_cast<std::size_t>(u)] == tracks[v]) {
          return "edge {" + std::to_string(v) + "," + std::to_string(u) +
                 "} on one track";
        }
      }
    }
    return "";
  }
};

/// Seeded op list, valid from the freshly opened state. Each session's ops
/// are contiguous, so one session's solver state stays in cache while it is
/// edited, rather than every op paying cache misses whose cost depends on
/// the other tenants of a shared cache. A session
/// first refutes W*-1 and routes at W* on its unchanged graph (the
/// optimality proof a user asks for before editing, and the cold first
/// solve; their cost is the same for every seed), then gets the same number
/// of cycles
///   RipUp(a), RipUp(b), Solve(W*), Reroute(a), Reroute(b), Solve(W*)
/// where each re-route restores the net's original partners, so the graph
/// never drifts from the original and every cycle draws from the same cost
/// distribution. Two deltas per solve put the median op inside the delta
/// cluster and the tail inside the solves, away from the boundary between
/// them. The seed picks the session order and the nets.
std::vector<Op> MakeOps(const std::vector<Circuit>& corpus,
                        std::uint64_t seed) {
  satfr::Rng rng(seed);
  std::vector<Op> ops;
  const std::vector<std::uint32_t> sessions =
      rng.Permutation(static_cast<std::uint32_t>(corpus.size()));
  for (const std::uint32_t s : sessions) {
    const Circuit& c = corpus[s];
    for (const int width : {c.wstar - 1, c.wstar}) {
      Op solve;
      solve.session = s;
      solve.width = width;
      ops.push_back(solve);
    }
    const auto n = static_cast<std::uint64_t>(c.graph.num_vertices());
    VertexId a = 0, b = 0;
    for (std::size_t step = 0; step < 6 * kCyclesPerSession; ++step) {
      Op op;
      op.session = s;
      switch (step % 6) {
        case 0:
          op.kind = OpKind::kRipUp;
          op.net = a = static_cast<VertexId>(rng.NextBelow(n));
          break;
        case 1:
          op.kind = OpKind::kRipUp;
          do {
            b = static_cast<VertexId>(rng.NextBelow(n));
          } while (b == a);
          op.net = b;
          break;
        case 3:  // b is still ripped: a's edge to it comes back with b
          op.kind = OpKind::kReroute;
          op.net = a;
          for (const VertexId u : c.graph.Neighbors(a)) {
            if (u != b) op.conflicts.push_back(u);
          }
          break;
        case 4:
          op.kind = OpKind::kReroute;
          op.net = b;
          op.conflicts = c.graph.Neighbors(b);
          break;
        default:
          op.kind = OpKind::kSolve;
          op.width = c.wstar;
      }
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

satfr::flow::RoutingSessionOptions SessionOptions() {
  satfr::flow::RoutingSessionOptions o;
  o.encoding = satfr::encode::GetEncoding("ITE-linear-2+muldirect");
  o.heuristic = satfr::symmetry::Heuristic::kS1;
  o.timeout_seconds = kTimeoutSeconds;
  return o;
}

using Sessions = std::vector<std::unique_ptr<satfr::flow::RoutingSession>>;

std::string OpenSessions(const std::vector<Circuit>& corpus, Sessions* out,
                         Samples* open_ms) {
  out->clear();
  for (const Circuit& c : corpus) {
    const double t = NowMs();
    out->push_back(std::make_unique<satfr::flow::RoutingSession>(
        c.graph, c.dsatur_width, SessionOptions()));
    if (open_ms != nullptr) open_ms->Add(NowMs() - t);
    if (!out->back()->ok()) return c.name + ": " + out->back()->error();
  }
  return "";
}

/// What one pass measured.
struct PassResult {
  double seconds = 0.0;
  Samples apply_us, solve_ms;
  SatTotals sat;
  std::vector<SolveResult> verdicts;  // per solve op, in order
  double delta_clauses = 0.0, deltas = 0.0, full_encodes = 0.0;
};

}  // namespace

Outcome RunSessionChurn(const Args& args) {
  Outcome out;
  Samples setup_s, open_ms;
  std::vector<Circuit> corpus;
  Sessions sessions;
  const std::string error = TimedCorpus(
      satfr::netlist::Table2BenchmarkNames(), {}, 0, args.seed,
      SetupRepeats(args), &setup_s, &corpus,
      [&] { return OpenSessions(corpus, &sessions, &open_ms); });
  if (!error.empty()) {
    out.Count("set-up: " + error);
    return out;
  }
  const std::vector<Op> ops = MakeOps(corpus, args.seed);

  // UNSAT answers of the first pass, re-decided after it; later passes must
  // repeat the first pass's verdicts op for op.
  struct Deferred {
    std::size_t session;
    int width;
    satfr::graph::Graph graph;
  };
  std::vector<Deferred> deferred;
  std::vector<SolveResult> first_verdicts;
  int pass_index = 0;
  PerQuery per_op;  // untraced passes only

  auto run_pass = [&](Tracer* tracer) {
    PassResult result;
    std::string error = sessions.empty()
                            ? OpenSessions(corpus, &sessions, nullptr)
                            : "";
    if (!error.empty()) {
      out.Count("re-open: " + error);
      return result;
    }
    std::vector<Mirror> mirrors;
    std::vector<satfr::sat::SolverStats> before;
    for (std::size_t s = 0; s < corpus.size(); ++s) {
      mirrors.emplace_back(corpus[s].graph);
      before.push_back(sessions[s]->solver().stats());
    }
    const bool first = pass_index == 0;
    const double start = NowMs();
    for (std::size_t k = 0; k < ops.size(); ++k) {
      const Op& op = ops[k];
      satfr::flow::RoutingSession& session = *sessions[op.session];
      const Circuit& c = corpus[op.session];
      const std::uint64_t qid = QueryId(pass_index, k);
      std::string bad;
      if (op.kind == OpKind::kSolve) {
        ScopedSpan span(tracer, "flow.session_solve", qid);
        const double t = NowMs();
        const satfr::flow::SessionSolveResult r = session.Solve(op.width);
        const double ms = NowMs() - t;
        if (tracer != nullptr) {
          tracer->Returned("sat.solve", t, r.solve_seconds * 1e3);
        } else {
          per_op.Add(k, ms);
        }
        result.solve_ms.Add(ms);
        result.sat.AddSolve(r.status, r.solve_seconds);
        result.verdicts.push_back(r.status);
        const std::size_t i = result.verdicts.size() - 1;
        const Mirror& m = mirrors[op.session];
        if (!r.error.empty()) {
          bad = r.error;
        } else if (!first && r.status != first_verdicts[i]) {
          bad = "verdict differs from the first pass";
        } else if (r.status == SolveResult::kSat) {
          bad = m.Check(r.tracks, op.width);
        } else if (r.status == SolveResult::kUnsat) {
          if (op.width >= c.wstar) {
            bad = "UNSAT at W*, but the mirror is a subgraph of a W*-"
                  "routable graph";
          } else if (first) {
            deferred.push_back({op.session, op.width, m.ToGraph()});
          }
        } else {
          bad = "no answer (unknown/timeout)";
        }
      } else {
        const double delta_before = session.session_stats().delta_seconds;
        const double t = NowMs();
        bool ok;
        {
          ScopedSpan span(tracer, op.kind == OpKind::kRipUp
                                      ? "flow.session_ripup"
                                      : "flow.session_reroute",
                          qid);
          ok = op.kind == OpKind::kRipUp ? session.RipUp(op.net)
                                         : session.Reroute(op.net, op.conflicts);
          if (tracer != nullptr) {
            tracer->Returned(
                "encode.delta", t,
                (session.session_stats().delta_seconds - delta_before) * 1e3);
          }
        }
        const double ms = NowMs() - t;
        if (tracer == nullptr) per_op.Add(k, ms);
        result.apply_us.Add(ms * 1e3);
        if (!ok) bad = session.error();
        mirrors[op.session].Apply(op);
      }
      out.Count(bad.empty() ? "" : c.name + " op " + std::to_string(k) +
                                       ": " + bad);
    }
    result.seconds = (NowMs() - start) / 1e3;
    for (std::size_t s = 0; s < corpus.size(); ++s) {
      const satfr::flow::SessionStats& st = sessions[s]->session_stats();
      result.sat.AddDelta(sessions[s]->solver().stats(), before[s]);
      result.delta_clauses += static_cast<double>(st.delta_clauses);
      result.deltas += static_cast<double>(st.deltas_applied);
      result.full_encodes += static_cast<double>(st.full_encodes) /
                             static_cast<double>(corpus.size());
      if (st.full_encodes != 1 || st.graph_extractions != 0) {
        out.Count(corpus[s].name + ": session re-encoded (full_encodes " +
                  std::to_string(st.full_encodes) + ")");
      }
    }
    if (first) first_verdicts = result.verdicts;
    sessions.clear();  // the next pass starts from freshly opened sessions
    ++pass_index;
    return result;
  };

  PassResult untraced;
  auto untraced_pass = [&] {
    untraced = run_pass(nullptr);
    return untraced.seconds;
  };
  Passes passes;
  if (!args.trace) {
    passes = RunPasses(args.seconds, kMinPasses, untraced_pass);
  } else {
    untraced_pass();
  }

  // Re-decide the first pass's UNSAT answers from scratch, outside timing.
  for (const Deferred& d : deferred) {
    satfr::flow::DetailedRouteOptions o;
    o.encoding = satfr::encode::GetEncoding("muldirect");
    o.heuristic = satfr::symmetry::Heuristic::kS1;
    o.timeout_seconds = kTimeoutSeconds;
    const satfr::flow::DetailedRouteResult r =
        satfr::flow::RouteDetailedOnGraph(d.graph, d.width, o);
    if (r.status != SolveResult::kUnsat) {
      out.Count(corpus[d.session].name + " W=" + std::to_string(d.width) +
                ": session said UNSAT, a fresh solve says " +
                satfr::sat::ToString(r.status));
    }
  }
  out.notes.push_back(std::to_string(deferred.size()) +
                      " session UNSAT answers re-decided from scratch");

  if (!args.trace) {
    // Every pass replays the same ops from freshly opened sessions, so each
    // op's median across passes is its typical cost.
    const Samples medians = per_op.Medians();
    AddEndToEnd(&out, setup_s, passes, ops.size(),
                per_op.MedianPassSeconds(), "sum of per-op medians", medians,
                "per-op medians over the passes", medians,
                "per-op medians over the passes", kTailPct);
    return out;
  }

  Tracer tracer;
  const PassResult traced = run_pass(&tracer);
  const PassResult untraced_after = run_pass(nullptr);
  const PassResult& u = untraced;
  Samples apply_us = u.apply_us;  // both untraced passes: >= 10 beyond p99
  apply_us.Append(untraced_after.apply_us);
  out.Add("session.open_ms", open_ms.Mean(), "ms",
          "per session, n=" + std::to_string(open_ms.size()));
  out.Add("session.apply_us_p50", apply_us.Percentile(50), "us",
          "RipUp/Reroute, n=" + std::to_string(apply_us.size()));
  out.Add("session.apply_us_p99", apply_us.Percentile(99), "us",
          "n=" + std::to_string(apply_us.size()) + ", " +
              std::to_string(apply_us.Beyond(99)) + " beyond");
  out.Add("session.solve_ms", u.solve_ms.Mean(), "ms",
          "per Solve, n=" + std::to_string(u.solve_ms.size()));
  out.Add("session.delta_clauses", u.deltas > 0 ? u.delta_clauses / u.deltas : 0,
          "count", "per delta");
  out.Add("session.full_encodes", u.full_encodes, "count",
          "per session; a pass fails unless every session has exactly 1");
  AddSatMetrics(&out, u.sat, u.solve_ms.size());
  AddTraceMetrics(&out, tracer, traced.seconds * 1e3,
                  (u.seconds + untraced_after.seconds) * 1e3 / 2,
                  TracePath(args));
  out.notes.push_back(
      "coverage: one flow.session_* span per op; sat and encode (delta "
      "emission) from the times the session returns");
  return out;
}

}  // namespace perfbench
