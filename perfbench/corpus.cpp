#include "corpus.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/rng.h"
#include "encode/csp_to_cnf.h"
#include "flow/conflict_graph.h"
#include "flow/detailed_router.h"
#include "flow/min_width.h"
#include "fpga/device_graph.h"
#include "graph/coloring_bounds.h"
#include "route/global_router.h"
#include "sat/clause_sink.h"

namespace perfbench {

using satfr::sat::SolveResult;

namespace {

constexpr double kReferenceTimeoutSeconds = 60.0;

/// Raises `stop` at the first restart after the solver's conflict count
/// passes `cap`: a budget that depends on the search, not on the clock.
class ConflictCap final : public satfr::sat::SolverObserver {
 public:
  ConflictCap(const satfr::sat::Solver& solver, std::uint64_t cap,
              satfr::mc::Atomic<bool>* stop)
      : solver_(solver), cap_(cap), stop_(stop) {}
  ConflictCap(const ConflictCap&) = delete;
  ConflictCap& operator=(const ConflictCap&) = delete;
  void OnRestartSample(const satfr::sat::SolverRestartSample&) override {
    if (solver_.stats().conflicts > cap_) stop_->store(true);
  }

 private:
  const satfr::sat::Solver& solver_;
  std::uint64_t cap_;
  satfr::mc::Atomic<bool>* stop_;
};

/// Solves the coloring of `g` at `width` under a conflict cap.
SolveResult CappedSolve(const satfr::graph::Graph& g, int width,
                        const char* encoding,
                        satfr::symmetry::Heuristic heuristic) {
  satfr::sat::Solver solver(satfr::sat::SolverOptions::SiegeLike());
  satfr::mc::Atomic<bool> stop{false};
  ConflictCap observer(solver, kVariantConflictBudget, &stop);
  solver.SetObserver(&observer);
  satfr::sat::SolverSink sink(solver);
  satfr::encode::EncodeColoringToSink(
      g, width, satfr::encode::GetEncoding(encoding),
      satfr::symmetry::SymmetrySequence(g, width, heuristic), sink);
  const SolveResult result = sink.Finish()
                                 ? solver.Solve(satfr::Deadline(), &stop)
                                 : SolveResult::kUnsat;
  solver.SetObserver(nullptr);  // the observer dies before the solver
  return result;
}

/// The variant screen: under each of the paper's three key strategies, the
/// min-width sweep (upward from the lower bound to the first SAT width,
/// plus the width below it) with every solve capped at
/// kVariantConflictBudget conflicts. True when all of them finished.
bool WithinBudget(const Circuit& c) {
  using satfr::symmetry::Heuristic;
  const std::pair<const char*, Heuristic> kStrategies[] = {
      {"muldirect", Heuristic::kS1},
      {"ITE-linear-2+muldirect", Heuristic::kS1},
      {"muldirect", Heuristic::kB1}};
  const int first = std::max(1, c.lower_bound);
  for (const auto& [encoding, heuristic] : kStrategies) {
    bool settled = false;
    for (int width = first; width <= c.dsatur_width && !settled; ++width) {
      const SolveResult r = CappedSolve(c.graph, width, encoding, heuristic);
      if (r == SolveResult::kUnknown) return false;
      if (r == SolveResult::kSat) {
        settled = true;
        if (width == first && width > 1 &&
            CappedSolve(c.graph, width - 1, encoding, heuristic) ==
                SolveResult::kUnknown) {
          return false;
        }
      }
    }
    if (!settled) return false;
  }
  return true;
}

/// Settles W* and checks the W*-1 refutation with the RUP checker.
std::string Reference(Circuit* out) {
  namespace flow = satfr::flow;
  flow::MinWidthOptions search;
  search.route.encoding = satfr::encode::GetEncoding("muldirect");
  search.route.heuristic = satfr::symmetry::Heuristic::kS1;
  search.route.timeout_seconds = kReferenceTimeoutSeconds;
  const flow::MinWidthResult found =
      flow::FindMinimumWidthOnGraph(out->graph, out->lower_bound, search);
  if (found.min_width < 1) return out->name + ": W* not established";
  out->wstar = found.min_width;
  const std::string bad =
      CheckColoring(out->graph, found.routable.tracks, out->wstar);
  if (!bad.empty()) return out->name + ": reference coloring: " + bad;
  if (out->wstar == 1) return "";

  flow::DetailedRouteOptions proof = search.route;
  proof.verify_unsat_proof = true;
  const flow::DetailedRouteResult refuted =
      flow::RouteDetailedOnGraph(out->graph, out->wstar - 1, proof);
  if (refuted.status != SolveResult::kUnsat || !refuted.proof_verified) {
    return out->name + ": W*-1 refutation did not pass the RUP checker";
  }
  return "";
}

}  // namespace

ExtractTimes Extract(const satfr::netlist::McncParams& params, Circuit* out,
                     Tracer* tracer, std::uint64_t query) {
  ExtractTimes times;
  out->name = params.name;
  out->params = params;
  double t = NowMs();
  std::optional<satfr::netlist::McncBenchmark> bench;
  {
    ScopedSpan span(tracer, "netlist.generate", query);
    bench.emplace(satfr::netlist::GenerateMcncBenchmark(params));
  }
  times.generate = NowMs() - t;
  t = NowMs();
  const satfr::fpga::Arch arch(params.grid_size);
  satfr::route::GlobalRouting routing;
  {
    ScopedSpan span(tracer, "route.global", query);
    const satfr::fpga::DeviceGraph device(arch);
    routing = satfr::route::RouteGlobally(device, bench->netlist,
                                          bench->placement);
  }
  times.route = NowMs() - t;
  t = NowMs();
  {
    ScopedSpan span(tracer, "flow.conflict_graph", query);
    out->graph = satfr::flow::BuildConflictGraph(arch, routing);
  }
  times.graph = NowMs() - t;
  t = NowMs();
  {
    ScopedSpan span(tracer, "graph.bounds", query);
    out->lower_bound = satfr::route::PeakCongestion(arch, routing);
    out->dsatur_width = satfr::graph::NumColorsUsed(
        satfr::graph::DsaturColoring(out->graph));
  }
  times.bounds = NowMs() - t;
  out->two_pin_nets = routing.NumTwoPinNets();
  return times;
}

const std::vector<std::string>& VariantClasses() {
  static const std::vector<std::string> kClasses = {"alu2", "too_large",
                                                     "alu4", "C880", "apex7"};
  return kClasses;
}

satfr::netlist::McncParams VariantParams(const std::string& base,
                                         std::uint64_t seed, int index) {
  satfr::netlist::McncParams params = satfr::netlist::GetMcncParams(base);
  satfr::Rng rng(seed ^ satfr::StableHash64(base + "#" +
                                            std::to_string(index)));
  char suffix[24];
  std::snprintf(suffix, sizeof(suffix), "~%08llx",
                static_cast<unsigned long long>(rng() & 0xffffffffULL));
  params.name = base + suffix;
  return params;
}

std::string ScreenVariants(const std::vector<std::string>& variant_classes,
                           int variants, std::uint64_t seed,
                           std::vector<satfr::netlist::McncParams>* out) {
  out->clear();
  int candidate = 0;
  for (int v = 0; v < variants; ++v) {
    const std::string& base =
        variant_classes[static_cast<std::size_t>(v) % variant_classes.size()];
    while (true) {
      if (candidate > 8 * (variants + 1)) {
        return "too many variants over the conflict budget";
      }
      Circuit circuit;
      Extract(VariantParams(base, seed, candidate++), &circuit);
      if (!WithinBudget(circuit)) continue;
      out->push_back(circuit.params);
      break;
    }
  }
  return "";
}

std::string BuildCorpus(
    const std::vector<std::string>& bases,
    const std::vector<satfr::netlist::McncParams>& variants,
    std::vector<Circuit>* out) {
  out->clear();
  for (const std::string& base : bases) {
    out->emplace_back();
    Extract(satfr::netlist::GetMcncParams(base), &out->back());
    const std::string error = Reference(&out->back());
    if (!error.empty()) return error;
  }
  for (const satfr::netlist::McncParams& params : variants) {
    out->emplace_back();
    Extract(params, &out->back());
    out->back().variant = true;
    const std::string error = Reference(&out->back());
    if (!error.empty()) return error;
  }
  return "";
}

std::string CheckAnswer(const Circuit& c, int width, SolveResult status,
                        const std::vector<int>& tracks) {
  const std::string where = c.name + " W=" + std::to_string(width) + ": ";
  switch (status) {
    case SolveResult::kSat: {
      const std::string bad = CheckColoring(c.graph, tracks, width);
      return bad.empty() ? "" : where + "SAT answer is wrong: " + bad;
    }
    case SolveResult::kUnsat:
      return width <= c.wstar - 1
                 ? ""
                 : where + "UNSAT, but W*=" + std::to_string(c.wstar) +
                       " has a witness";
    default:
      return where + "no answer (unknown/timeout)";
  }
}

}  // namespace perfbench
