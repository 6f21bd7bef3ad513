// paper_flow: one thread, closed loop. A query is the whole `satfr prove`
// flow for one circuit under one of the paper's key strategies: generate
// the netlist, route it globally, extract the conflict graph, bound the
// width (peak congestion, DSATUR), then find W* and refute W*-1 with the
// monolithic search.
#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "encode/csp_to_cnf.h"
#include "flow/min_width.h"
#include "sat/clause_sink.h"
#include "workloads.h"

namespace perfbench {

namespace {

using satfr::sat::SolveResult;
using satfr::symmetry::Heuristic;

struct Strategy {
  const char* encoding;
  Heuristic heuristic;
};

// muldirect/none is left out: k2 alone runs for over 880 s under it.
constexpr Strategy kStrategies[] = {
    {"muldirect", Heuristic::kS1},
    {"ITE-linear-2+muldirect", Heuristic::kS1},
    {"muldirect", Heuristic::kB1},
};
// Each variant runs under one strategy (variant i under strategy i mod 3),
// so seeded instances stay a small share of a pass.
constexpr int kVariants = 4;
constexpr double kTailPct = 75.0;  // 24 Table-2 queries a pass, 3+ passes
constexpr int kMinPasses = 3;
constexpr double kTimeoutSeconds = 60.0;

struct Query {
  std::size_t circuit;
  std::size_t strategy;
};

satfr::flow::DetailedRouteOptions RouteOptions(const Strategy& s) {
  satfr::flow::DetailedRouteOptions o;
  o.encoding = satfr::encode::GetEncoding(s.encoding);
  o.heuristic = s.heuristic;
  o.timeout_seconds = kTimeoutSeconds;
  return o;
}

/// Per-width figures of the traced pass.
struct LayerTotals {
  Samples generate_ms, route_ms, graph_ms, bounds_ms;
  Samples two_pin, edges, gap, widths;
  Samples sequence_ms, encode_ms, clauses;
  SatTotals sat;
  std::size_t solves = 0;
  // (circuit, width, strategy) of every width solve, for the literal count.
  std::vector<std::tuple<std::size_t, int, std::size_t>> encodes;
};

/// Checks a prove answer for reference `c`; `e` is the query's own
/// extraction of the same circuit.
std::string CheckProve(const Circuit& c, const Circuit& e, int wstar,
                       SolveResult routable, const std::vector<int>& tracks,
                       const SolveResult* refuted) {
  if (e.graph.num_edges() != c.graph.num_edges() ||
      e.lower_bound != c.lower_bound) {
    return c.name + ": extracted graph differs from the reference";
  }
  if (wstar != c.wstar) {
    return c.name + ": W*=" + std::to_string(wstar) + ", reference " +
           std::to_string(c.wstar);
  }
  std::string bad = CheckAnswer(c, wstar, routable, tracks);
  if (bad.empty() && wstar > 1) {
    bad = refuted == nullptr
              ? c.name + ": W*-1 not refuted"
              : CheckAnswer(c, wstar - 1, *refuted, {});
  }
  return bad;
}

/// The composite query: exactly what `satfr prove` runs.
std::string Prove(const Circuit& c, const Strategy& s) {
  Circuit e;
  Extract(c.params, &e);
  satfr::flow::MinWidthOptions search;
  search.route = RouteOptions(s);
  search.max_width = e.dsatur_width;
  const satfr::flow::MinWidthResult r = satfr::flow::FindMinimumWidthOnGraph(
      e.graph, e.lower_bound, search);
  if (!r.proven_optimal) return c.name + ": optimality not proven";
  return CheckProve(c, e, r.min_width, r.routable.status, r.routable.tracks,
                    r.min_width > 1 ? &r.unroutable.status : nullptr);
}

/// One width of the traced sweep: the answer a RouteDetailedOnGraph call
/// would give, from the public calls it makes in turn.
struct WidthAnswer {
  SolveResult status = SolveResult::kUnknown;
  std::vector<int> tracks;
};

/// The traced query: FindMinimumWidthOnGraph's sweep, with each width's
/// RouteDetailedOnGraph split into the public calls it makes
/// (SymmetrySequence, EncodeColoringToSink into a SolverSink,
/// Solver::Solve, DecodeColoring), a span around each, so nothing is
/// computed twice and no time is derived by subtraction.
std::string ProveTraced(const Circuit& c, std::size_t circuit_index,
                        std::size_t strategy_index, Tracer* tracer,
                        std::uint64_t qid, LayerTotals* totals) {
  ScopedSpan top(tracer, "flow.prove", qid);
  const Strategy& s = kStrategies[strategy_index];
  Circuit e;
  const ExtractTimes times = Extract(c.params, &e, tracer, qid);
  totals->generate_ms.Add(times.generate);
  totals->route_ms.Add(times.route);
  totals->graph_ms.Add(times.graph);
  totals->bounds_ms.Add(times.bounds);
  totals->two_pin.Add(static_cast<double>(e.two_pin_nets));
  totals->edges.Add(static_cast<double>(e.graph.num_edges()));
  totals->gap.Add(e.dsatur_width - e.lower_bound);
  const satfr::flow::DetailedRouteOptions options = RouteOptions(s);
  auto route_width = [&](int width) {
    ScopedSpan span(tracer, "flow.route_width", qid);
    double t = NowMs();
    std::vector<satfr::graph::VertexId> sequence;
    {
      ScopedSpan seq(tracer, "symmetry.sequence", qid);
      sequence = satfr::symmetry::SymmetrySequence(e.graph, width,
                                                   options.heuristic);
    }
    totals->sequence_ms.Add(NowMs() - t);
    satfr::sat::Solver solver(options.solver);
    satfr::encode::ColoringLayout layout;
    bool consistent;
    t = NowMs();
    {
      ScopedSpan emit(tracer, "encode.emit", qid);
      satfr::sat::SolverSink sink(solver);
      layout = satfr::encode::EncodeColoringToSink(
          e.graph, width, options.encoding, sequence, sink);
      consistent = sink.Finish();
    }
    totals->encode_ms.Add(NowMs() - t);
    WidthAnswer answer;
    t = NowMs();
    {
      ScopedSpan solve(tracer, "sat.solve", qid);
      answer.status =
          consistent ? solver.Solve(satfr::Deadline::After(kTimeoutSeconds))
                     : SolveResult::kUnsat;
    }
    totals->sat.AddSolve(answer.status, (NowMs() - t) / 1e3);
    if (answer.status == SolveResult::kSat) {
      ScopedSpan decode(tracer, "encode.decode", qid);
      answer.tracks = satfr::encode::DecodeColoring(layout, solver.model());
    }
    totals->clauses.Add(static_cast<double>(layout.stats.TotalEmitted()));
    totals->sat.Add(solver.stats());
    ++totals->solves;
    totals->encodes.emplace_back(circuit_index, width, strategy_index);
    return answer;
  };
  // Same sweep as FindMinimumWidthOnGraph: upward from the lower bound; a
  // first-width SAT gets its W-1 refutation solved separately.
  const int first = std::max(1, e.lower_bound);
  int tested = 0;
  WidthAnswer previous;
  for (int width = first; width <= e.dsatur_width; ++width) {
    WidthAnswer r = route_width(width);
    ++tested;
    if (r.status == SolveResult::kUnknown) break;
    if (r.status == SolveResult::kUnsat) {
      previous = std::move(r);
      continue;
    }
    if (width == first && width > 1) {
      previous = route_width(width - 1);
      ++tested;
    }
    totals->widths.Add(tested);
    const int expected = c.wstar == first && c.wstar > 1
                             ? 2
                             : c.wstar - first + 1;
    if (tested != expected) {
      return c.name + ": traced sweep tested " + std::to_string(tested) +
             " widths, the composite search tests " +
             std::to_string(expected);
    }
    return CheckProve(c, e, width, r.status, r.tracks,
                      width > 1 ? &previous.status : nullptr);
  }
  return c.name + ": traced sweep found no width";
}

}  // namespace

Outcome RunPaperFlow(const Args& args) {
  Outcome out;
  Samples setup_s;
  std::vector<Circuit> corpus;
  const std::string error =
      TimedCorpus(satfr::netlist::Table2BenchmarkNames(), VariantClasses(),
                  kVariants, args.seed, SetupRepeats(args), &setup_s, &corpus);
  if (!error.empty()) {
    out.Count("set-up: " + error);
    return out;
  }

  std::vector<Query> list;
  std::size_t variant_index = 0;
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    for (std::size_t s = 0; s < std::size(kStrategies); ++s) {
      if (!corpus[c].variant ||
          variant_index % std::size(kStrategies) == s) {
        list.push_back({c, s});
      }
    }
    variant_index += corpus[c].variant ? 1 : 0;
  }
  satfr::Rng rng(args.seed);
  const std::vector<std::uint32_t> order =
      rng.Permutation(static_cast<std::uint32_t>(list.size()));

  Samples latency_ms, variant_ms;
  PerQuery per_query, table2;  // table2: the Table-2 queries only
  auto untraced_pass = [&] {
    const double start = NowMs();
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Query& q = list[order[k]];
      const double t = NowMs();
      const std::string bad =
          Prove(corpus[q.circuit], kStrategies[q.strategy]);
      const double ms = NowMs() - t;
      (corpus[q.circuit].variant ? variant_ms : latency_ms).Add(ms);
      per_query.Add(k, ms);
      if (!corpus[q.circuit].variant) table2.Add(k, ms);
      out.Count(bad);
    }
    return (NowMs() - start) / 1e3;
  };

  if (!args.trace) {
    const Passes passes = RunPasses(args.seconds, kMinPasses, untraced_pass);
    AddEndToEnd(&out, setup_s, passes, list.size(),
                per_query.MedianPassSeconds(), "sum of per-query medians",
                table2.Medians(), "per-query medians of the Table-2 queries",
                latency_ms, "raw samples of the Table-2 queries", kTailPct);
    out.notes.push_back(VariantNote(variant_ms));
    return out;
  }

  const double untraced_ms = untraced_pass() * 1e3;
  Tracer tracer;
  LayerTotals totals;
  const double start = NowMs();
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Query& q = list[order[k]];
    out.Count(ProveTraced(corpus[q.circuit], q.circuit, q.strategy, &tracer,
                          QueryId(0, k), &totals));
  }
  const double traced_ms = NowMs() - start;
  const double untraced_after_ms = untraced_pass() * 1e3;

  // Literal and byte counts need the materialized formula; encode each
  // traced width once more, outside the traced pass.
  Samples literals, mib;
  for (const auto& [c, width, s] : totals.encodes) {
    const satfr::encode::EncodedColoring encoded =
        satfr::encode::EncodeColoring(
            corpus[c].graph, width,
            satfr::encode::GetEncoding(kStrategies[s].encoding),
            satfr::symmetry::SymmetrySequence(corpus[c].graph, width,
                                              kStrategies[s].heuristic));
    literals.Add(static_cast<double>(encoded.cnf.num_literals()));
    mib.Add(static_cast<double>(encoded.cnf.ApproxHeapBytes()) /
            (1024.0 * 1024.0));
  }

  out.Add("netlist.generate_ms", totals.generate_ms.Mean(), "ms", "per query");
  out.Add("route.global_ms", totals.route_ms.Mean(), "ms", "per query");
  out.Add("route.two_pin_nets", totals.two_pin.Mean(), "count", "per query");
  out.Add("flow.conflict_graph_ms", totals.graph_ms.Mean(), "ms", "per query");
  out.Add("flow.conflict_edges", totals.edges.Mean(), "count", "per query");
  out.Add("graph.bounds_ms", totals.bounds_ms.Mean(), "ms", "per query");
  out.Add("graph.bound_gap", totals.gap.Mean(), "count",
          "DSATUR minus peak congestion, per query");
  out.Add("flow.widths_tested", totals.widths.Mean(), "count", "per query");
  out.Add("symmetry.sequence_ms", totals.sequence_ms.Mean(), "ms",
          "per width solve");
  out.Add("encode.ms", totals.encode_ms.Mean(), "ms",
          "EncodeColoringToSink into the solver, per width solve");
  out.Add("encode.clauses", totals.clauses.Mean(), "count", "per width solve");
  out.Add("encode.literals", literals.Mean(), "count", "per width solve");
  out.Add("encode.clause_mib", mib.Mean(), "MiB",
          "materialized CNF, per width solve");
  AddSatMetrics(&out, totals.sat, totals.solves);
  AddTraceMetrics(&out, tracer, traced_ms,
                  (untraced_ms + untraced_after_ms) / 2,
                  TracePath(args));
  out.notes.push_back(
      "coverage: spans around public calls only; FindMinimumWidthOnGraph "
      "replaced by its per-width sweep (W* and widths tested asserted "
      "equal), each width split into SymmetrySequence, "
      "EncodeColoringToSink, Solver::Solve and DecodeColoring");
  return out;
}

}  // namespace perfbench
