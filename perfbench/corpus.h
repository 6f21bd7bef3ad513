// The benchmark's instances and their reference answers.
//
// Instances are the eight Table-2 circuits of the paper plus seeded variants
// of their parameter sets: a variant keeps a class's McncParams and takes a
// seed-derived name, and since the generator seeds itself from the name the
// variant is a fresh netlist of the same scale. Only the classes listed by
// VariantClasses() are re-seeded. Re-seeding vda, C1355 or k2 gives
// heavy-tailed refutation times (a k2 variant timed out after 30 s under
// all three paper strategies), which no run of a few tens of seconds can
// absorb.
//
// Every instance is settled once in set-up: W* from a monolithic
// muldirect/s1 search, and W*-1 re-solved with the independent RUP checker
// on its refutation. Answers the workloads get later are checked against
// these references and against the benchmark's own coloring check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "harness.h"
#include "netlist/mcnc_suite.h"
#include "sat/solver.h"

namespace perfbench {

struct Circuit {
  std::string name;
  satfr::netlist::McncParams params;
  satfr::graph::Graph graph;
  std::size_t two_pin_nets = 0;
  int lower_bound = 0;   // peak congestion
  int dsatur_width = 0;  // DSATUR colors
  int wstar = 0;         // minimum routable width, RUP-checked at W*-1
  bool variant = false;  // seed-derived; false for the Table-2 circuits
};

/// Stage times of one Extract call, in milliseconds.
struct ExtractTimes {
  double generate = 0.0;
  double route = 0.0;
  double graph = 0.0;
  double bounds = 0.0;
};

/// Generates the netlist of `params`, routes it globally and extracts the
/// conflict graph and its bounds into `out` (name, params, graph,
/// two_pin_nets, lower_bound, dsatur_width). With a tracer, each stage gets
/// a span under `query`.
ExtractTimes Extract(const satfr::netlist::McncParams& params, Circuit* out,
                     Tracer* tracer = nullptr, std::uint64_t query = 0);

/// Classes whose parameter sets are re-seeded into variants.
const std::vector<std::string>& VariantClasses();

/// Variant `index` of `base` under `seed`: the class's parameters under a
/// seed-derived name.
satfr::netlist::McncParams VariantParams(const std::string& base,
                                         std::uint64_t seed, int index);

/// `variants` seeded variants of the classes in `variant_classes`
/// (cycled). A candidate is screened by the min-width sweep under each of
/// the paper's three key strategies, every solve capped at
/// kVariantConflictBudget conflicts (stopped at the first restart past it);
/// one that hits the cap is skipped for the next seed-derived candidate, so
/// variants stay a small, bounded share of a pass. The cap counts
/// conflicts, not time, so a seed always yields the same instances. The
/// screen is the benchmark's choice of inputs, made once before set-up is
/// timed. Returns "" on success.
constexpr std::uint64_t kVariantConflictBudget = 2000;
std::string ScreenVariants(const std::vector<std::string>& variant_classes,
                           int variants, std::uint64_t seed,
                           std::vector<satfr::netlist::McncParams>* out);

/// `bases` by Table-2 name, then `variants`, each generated, routed,
/// extracted and settled (W*, RUP-checked refutation of W*-1). Returns ""
/// on success.
std::string BuildCorpus(
    const std::vector<std::string>& bases,
    const std::vector<satfr::netlist::McncParams>& variants,
    std::vector<Circuit>* out);

/// Checks an answer for `c` at `width`: kSat must carry a proper coloring
/// of the reference graph within `width` tracks; kUnsat is right only at
/// widths <= W*-1 (settled by RUP); kUnknown is always a failure.
/// Returns "" when the answer is right.
std::string CheckAnswer(const Circuit& c, int width,
                        satfr::sat::SolveResult status,
                        const std::vector<int>& tracks);

}  // namespace perfbench
