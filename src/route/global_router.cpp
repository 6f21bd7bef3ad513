#include "route/global_router.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "route/maze_router.h"

namespace satfr::route {
namespace {

using fpga::NodeId;
using fpga::SegmentIndex;

// Negotiation cost weights: the present-congestion penalty starts at
// kPresentFactorInitial and grows by kPresentFactorGrowth per round; the
// accumulated history cost is weighted by kHistoryFactor.
constexpr double kPresentFactorInitial = 0.6;
constexpr double kPresentFactorGrowth = 1.5;
constexpr double kHistoryFactor = 0.35;

}  // namespace

int CapacityLowerBound(const fpga::Arch& arch, const netlist::Netlist& nets,
                       const netlist::Placement& placement) {
  // Switch-node rectangles [x0,x1] x [y0,y1] touching >= 2 grid borders
  // (the whole grid, with no boundary, excepted). Pins inside one are read
  // off a 2D prefix-sum table with stride `side + 1`.
  const int side = arch.nodes_per_side();
  const int last = side - 1;
  const int stride = side + 1;
  struct Cut {
    int hi_hi, lo_hi, hi_lo, lo_lo;  // prefix-table corners
    int segments;                    // segments leaving the rectangle
  };
  std::vector<Cut> cuts;
  for (int x0 = 0; x0 <= last; ++x0) {
    for (int x1 = x0; x1 <= last; ++x1) {
      for (int y0 = 0; y0 <= last; ++y0) {
        for (int y1 = y0; y1 <= last; ++y1) {
          const int borders =
              (x0 == 0) + (x1 == last) + (y0 == 0) + (y1 == last);
          if (borders < 2 || borders == 4) continue;
          const int width = x1 - x0 + 1;
          const int height = y1 - y0 + 1;
          cuts.push_back(Cut{
              (y1 + 1) * stride + x1 + 1, y0 * stride + x1 + 1,
              (y1 + 1) * stride + x0, y0 * stride + x0,
              (x0 > 0 ? height : 0) + (x1 < last ? height : 0) +
                  (y0 > 0 ? width : 0) + (y1 < last ? width : 0)});
        }
      }
    }
  }

  // Parents with pins both inside and outside each rectangle.
  std::vector<int> crossing(cuts.size(), 0);
  std::vector<int> pins(static_cast<std::size_t>(stride * stride));
  for (const netlist::Net& net : nets.nets()) {
    std::fill(pins.begin(), pins.end(), 0);
    const auto add_pin = [&](netlist::BlockId block) {
      const fpga::Coord c = placement.LocationOf(block);
      ++pins[static_cast<std::size_t>((c.y + 1) * stride + c.x + 1)];
    };
    add_pin(net.source);
    for (const netlist::BlockId sink : net.sinks) add_pin(sink);
    for (int y = 1; y < stride; ++y) {
      for (int x = 1; x < stride; ++x) {
        pins[static_cast<std::size_t>(y * stride + x)] +=
            pins[static_cast<std::size_t>((y - 1) * stride + x)] +
            pins[static_cast<std::size_t>(y * stride + x - 1)] -
            pins[static_cast<std::size_t>((y - 1) * stride + x - 1)];
      }
    }
    const int total = net.NumPins();
    for (std::size_t r = 0; r < cuts.size(); ++r) {
      const Cut& cut = cuts[r];
      const int inside = pins[static_cast<std::size_t>(cut.hi_hi)] -
                         pins[static_cast<std::size_t>(cut.lo_hi)] -
                         pins[static_cast<std::size_t>(cut.hi_lo)] +
                         pins[static_cast<std::size_t>(cut.lo_lo)];
      crossing[r] += (inside > 0 && inside < total) ? 1 : 0;
    }
  }

  int bound = 0;
  for (std::size_t r = 0; r < cuts.size(); ++r) {
    const int segments = cuts[r].segments;
    bound = std::max(bound, (crossing[r] + segments - 1) / segments);
  }
  return bound;
}

GlobalRouting RouteGlobally(const fpga::DeviceGraph& device,
                            const netlist::Netlist& nets,
                            const netlist::Placement& placement,
                            const GlobalRouterOptions& options) {
  const fpga::Arch& arch = device.arch();
  GlobalRouting routing;
  routing.two_pin_nets = options.decomposition == Decomposition::kChain
                             ? DecomposeToTwoPinChain(nets, placement)
                             : DecomposeToTwoPin(nets);
  const std::size_t num_routes = routing.two_pin_nets.size();
  routing.routes.resize(num_routes);

  // Endpoint switch nodes per 2-pin net.
  std::vector<NodeId> from(num_routes);
  std::vector<NodeId> to(num_routes);
  for (std::size_t i = 0; i < num_routes; ++i) {
    const TwoPinNet& net = routing.two_pin_nets[i];
    const fpga::Coord s = placement.LocationOf(net.source);
    const fpga::Coord t = placement.LocationOf(net.sink);
    from[i] = arch.BlockAccessNode(s.x, s.y);
    to[i] = arch.BlockAccessNode(t.x, t.y);
  }

  // Long nets first: they have the fewest detour options.
  std::vector<std::size_t> order(num_routes);
  for (std::size_t i = 0; i < num_routes; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int da = device.ManhattanDistance(from[a], to[a]);
    const int db = device.ManhattanDistance(from[b], to[b]);
    if (da != db) return da > db;
    return a < b;
  });

  // 2-pin nets of parent p are [first[p], first[p + 1]): both
  // decompositions emit them contiguously, in parent order.
  std::vector<std::size_t> first(static_cast<std::size_t>(nets.num_nets()) + 1,
                                 0);
  for (const TwoPinNet& net : routing.two_pin_nets) {
    ++first[static_cast<std::size_t>(net.parent) + 1];
  }
  std::partial_sum(first.begin(), first.end(), first.begin());

  // distinct[seg] = parents with a route across seg. Adding or ripping up
  // net i changes it only where none of i's siblings crosses seg: before
  // touching net i, its siblings' segments are stamped with a fresh
  // generation, and stamped segments keep counting i's parent.
  const int num_segments = arch.num_segments();
  std::vector<int> distinct(static_cast<std::size_t>(num_segments), 0);
  std::vector<unsigned> stamp(static_cast<std::size_t>(num_segments), 0);
  unsigned generation = 0;
  const auto stamp_siblings = [&](std::size_t i) {
    ++generation;
    const auto parent =
        static_cast<std::size_t>(routing.two_pin_nets[i].parent);
    for (std::size_t sib = first[parent]; sib < first[parent + 1]; ++sib) {
      if (sib == i) continue;
      for (const SegmentIndex seg : routing.routes[sib]) {
        stamp[static_cast<std::size_t>(seg)] = generation;
      }
    }
  };
  const auto stamped = [&](SegmentIndex seg) {
    return stamp[static_cast<std::size_t>(seg)] == generation ? 1 : 0;
  };
  const auto add_route = [&](std::size_t i, std::vector<SegmentIndex> route) {
    routing.routes[i] = std::move(route);
    for (const SegmentIndex seg : routing.routes[i]) {
      if (!stamped(seg)) ++distinct[static_cast<std::size_t>(seg)];
    }
  };

  // Initial shortest-path routing.
  MazeSearch search(device);
  for (const std::size_t i : order) {
    auto path =
        search.FindPath(from[i], to[i], [](SegmentIndex) { return 1.0; });
    assert(path.has_value() && "grid is connected");
    stamp_siblings(i);
    add_route(i, std::move(*path));
  }

  std::vector<double> history(static_cast<std::size_t>(num_segments), 0.0);
  GlobalRouting best = routing;

  // Tighten the capacity target until negotiation fails. No routing meets a
  // capacity below the cut bound, so the loop stops there instead of
  // spending every negotiation round on a target that must fail.
  const int capacity_floor =
      std::max(1, CapacityLowerBound(arch, nets, placement));
  const int peak = distinct.empty() ? 0
                                    : *std::max_element(distinct.begin(),
                                                        distinct.end());
  for (int capacity = peak - 1; capacity >= capacity_floor; --capacity) {
    double present_factor = kPresentFactorInitial;
    bool feasible = false;
    for (int round = 0; round < options.negotiation_rounds && !feasible;
         ++round) {
      for (const std::size_t i : order) {
        stamp_siblings(i);
        for (const SegmentIndex seg : routing.routes[i]) {
          if (!stamped(seg)) --distinct[static_cast<std::size_t>(seg)];
        }
        const auto cost = [&](SegmentIndex seg) {
          const int others =
              distinct[static_cast<std::size_t>(seg)] - stamped(seg);
          const int overuse = std::max(0, others + 1 - capacity);
          return 1.0 + present_factor * overuse +
                 kHistoryFactor * history[static_cast<std::size_t>(seg)];
        };
        auto path = search.FindPath(from[i], to[i], cost);
        assert(path.has_value());
        add_route(i, std::move(*path));
      }
      assert(distinct == SegmentParentUsage(arch, routing));
      // Accumulate history on overused segments; raise the pressure.
      int total_overuse = 0;
      for (std::size_t seg = 0; seg < distinct.size(); ++seg) {
        const int overuse = std::max(0, distinct[seg] - capacity);
        history[seg] += overuse;
        total_overuse += overuse;
      }
      present_factor *= kPresentFactorGrowth;
      feasible = (total_overuse == 0);
    }
    if (feasible) {
      best = routing;
    } else {
      break;  // this capacity is out of reach; keep the last feasible one
    }
  }
  return best;
}

}  // namespace satfr::route
