// Minimum channel-width search with an unroutability proof.
//
// The paper's headline capability: because SAT can prove UNSAT, a detailed
// routing found at width W* is *optimal* once W*-1 is proven unroutable.
// This module searches upward from the congestion lower bound and returns
// both the routable result at W* and the UNSAT proof at W*-1 (when W* is
// above the trivial bound of 1).
#pragma once

#include "flow/detailed_router.h"

namespace satfr::flow {

struct MinWidthOptions {
  DetailedRouteOptions route;
  /// Upper bound on the search (safety net; conflict graphs are always
  /// colorable with max-degree+1 colors).
  int max_width = 64;
};

struct MinWidthResult {
  /// Smallest W with a detailed routing; -1 if the search failed (timeout
  /// or max_width exceeded).
  int min_width = -1;
  /// Congestion lower bound the search started from.
  int lower_bound = 1;
  /// True when min_width-1 was proven UNSAT (or min_width == 1).
  bool proven_optimal = false;
  /// Result at min_width (status kSat) — the detailed routing.
  DetailedRouteResult routable;
  /// Result at min_width - 1 (status kUnsat) when proven_optimal and
  /// min_width > 1 — the paper's "unroutable configuration".
  DetailedRouteResult unroutable;
};

MinWidthResult FindMinimumWidth(const fpga::Arch& arch,
                                const route::GlobalRouting& routing,
                                const MinWidthOptions& options = {});

/// Same search on a prebuilt conflict graph.
MinWidthResult FindMinimumWidthOnGraph(const graph::Graph& conflict_graph,
                                       int congestion_lower_bound,
                                       const MinWidthOptions& options = {});

}  // namespace satfr::flow
