#include "flow/min_width.h"

#include <algorithm>
#include <string>

#include "flow/conflict_graph.h"
#include "obs/trace.h"

namespace satfr::flow {

MinWidthResult FindMinimumWidthOnGraph(const graph::Graph& conflict_graph,
                                       int congestion_lower_bound,
                                       const MinWidthOptions& options) {
  MinWidthResult result;
  result.lower_bound = std::max(1, congestion_lower_bound);

  DetailedRouteResult previous;  // result at width-1 while scanning upward
  bool have_previous = false;
  for (int width = result.lower_bound; width <= options.max_width; ++width) {
    obs::TraceSpan width_span(obs::GlobalTrace(),
                              "width " + std::to_string(width), "sweep");
    DetailedRouteResult attempt =
        RouteDetailedOnGraph(conflict_graph, width, options.route);
    width_span.AddArg("verdict",
                      obs::JsonValue(sat::ToString(attempt.status)));
    width_span.End();
    if (attempt.status == sat::SolveResult::kUnknown) {
      return result;  // timed out; min_width stays -1
    }
    if (attempt.status == sat::SolveResult::kSat) {
      result.min_width = width;
      result.routable = std::move(attempt);
      if (width == 1) {
        result.proven_optimal = true;
      } else if (have_previous) {
        result.proven_optimal = true;
        result.unroutable = std::move(previous);
      } else {
        // First probe was already SAT; prove width-1 unroutable explicitly.
        DetailedRouteResult proof =
            RouteDetailedOnGraph(conflict_graph, width - 1, options.route);
        if (proof.status == sat::SolveResult::kUnsat) {
          result.proven_optimal = true;
          result.unroutable = std::move(proof);
        }
      }
      return result;
    }
    previous = std::move(attempt);  // UNSAT at this width
    have_previous = true;
  }
  return result;
}

MinWidthResult FindMinimumWidth(const fpga::Arch& arch,
                                const route::GlobalRouting& routing,
                                const MinWidthOptions& options) {
  const graph::Graph conflict_graph = BuildConflictGraph(arch, routing);
  return FindMinimumWidthOnGraph(
      conflict_graph, route::PeakCongestion(arch, routing), options);
}

}  // namespace satfr::flow
