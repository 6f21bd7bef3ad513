#include "flow/min_width.h"

#include <algorithm>
#include <string>
#include <utility>

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
      result.error = std::move(attempt.error);
      return result;  // timed out or failed the model check; min_width -1
    }
    if (attempt.status == sat::SolveResult::kSat) {
      if (width > 1 && !have_previous) {
        // First probe was already SAT; prove width-1 unroutable explicitly.
        previous =
            RouteDetailedOnGraph(conflict_graph, width - 1, options.route);
        if (previous.status == sat::SolveResult::kSat) {
          // A SAT answer below the caller's bound: the bound was wrong, and
          // `width` is not the minimum. Never report it as one.
          result.error = "lower bound " + std::to_string(width) +
                         " is above the minimum width: width " +
                         std::to_string(width - 1) + " routes";
          return result;
        }
        have_previous = previous.status == sat::SolveResult::kUnsat;
        if (!have_previous) result.error = std::move(previous.error);
      }
      result.min_width = width;
      result.routable = std::move(attempt);
      result.proven_optimal = width == 1 || have_previous;
      if (have_previous) result.unroutable = std::move(previous);
      return result;
    }
    previous = std::move(attempt);  // UNSAT at this width
    have_previous = true;
  }
  const std::string max_width = std::to_string(options.max_width);
  result.error =
      result.lower_bound > options.max_width
          ? "lower bound " + std::to_string(result.lower_bound) +
                " is above max_width " + max_width
          : "every width up to max_width " + max_width + " is unroutable";
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
