#include "route/global_router.h"

#include <algorithm>
#include <cassert>

#include "route/maze_router.h"

namespace satfr::route {
namespace {

using fpga::NodeId;
using fpga::SegmentIndex;
using netlist::NetId;

struct ParentCount {
  NetId parent;
  int count;
};

template <typename Counts>  // (const) std::vector<ParentCount>
auto FindParent(Counts& counts, NetId parent) {
  return std::find_if(counts.begin(), counts.end(),
                      [parent](const ParentCount& c) {
                        return c.parent == parent;
                      });
}

// Tracks, per segment, how many routes of each parent net cross it, so that
// distinct-parent usage is maintainable under rip-up. A segment carries a
// handful of parents, so a short unordered list beats a hash map.
class UsageTracker {
 public:
  explicit UsageTracker(int num_segments)
      : per_segment_(static_cast<std::size_t>(num_segments)) {}

  void Add(const std::vector<SegmentIndex>& route, NetId parent) {
    for (const SegmentIndex seg : route) {
      auto& counts = per_segment_[static_cast<std::size_t>(seg)];
      const auto it = FindParent(counts, parent);
      if (it == counts.end()) {
        counts.push_back({parent, 1});
      } else {
        ++it->count;
      }
    }
  }

  void Remove(const std::vector<SegmentIndex>& route, NetId parent) {
    for (const SegmentIndex seg : route) {
      auto& counts = per_segment_[static_cast<std::size_t>(seg)];
      const auto it = FindParent(counts, parent);
      assert(it != counts.end());
      if (--it->count == 0) {
        *it = counts.back();
        counts.pop_back();
      }
    }
  }

  /// Distinct parents using `seg`.
  int Usage(SegmentIndex seg) const {
    return static_cast<int>(per_segment_[static_cast<std::size_t>(seg)].size());
  }

  /// Distinct parents other than `parent` using `seg`.
  int UsageExcluding(SegmentIndex seg, NetId parent) const {
    const auto& counts = per_segment_[static_cast<std::size_t>(seg)];
    return static_cast<int>(counts.size()) -
           (FindParent(counts, parent) != counts.end() ? 1 : 0);
  }

  int Peak() const {
    int peak = 0;
    for (const auto& counts : per_segment_) {
      peak = std::max(peak, static_cast<int>(counts.size()));
    }
    return peak;
  }

  /// Total overuse above `capacity` across all segments.
  int TotalOveruse(int capacity) const {
    int total = 0;
    for (const auto& counts : per_segment_) {
      total += std::max(0, static_cast<int>(counts.size()) - capacity);
    }
    return total;
  }

 private:
  std::vector<std::vector<ParentCount>> per_segment_;
};

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

  // Initial shortest-path routing.
  MazeSearch search(device);
  UsageTracker usage(arch.num_segments());
  for (const std::size_t i : order) {
    auto path =
        search.FindPath(from[i], to[i], [](SegmentIndex) { return 1.0; });
    assert(path.has_value() && "grid is connected");
    routing.routes[i] = std::move(*path);
    usage.Add(routing.routes[i], routing.two_pin_nets[i].parent);
  }

  std::vector<double> history(static_cast<std::size_t>(arch.num_segments()),
                              0.0);
  GlobalRouting best = routing;

  // Tighten the capacity target until negotiation fails. No routing meets a
  // capacity below the cut bound, so the loop stops there instead of
  // spending every negotiation round on a target that must fail.
  const int capacity_floor =
      std::max(1, CapacityLowerBound(arch, nets, placement));
  for (int capacity = usage.Peak() - 1; capacity >= capacity_floor;
       --capacity) {
    double present_factor = options.present_factor_initial;
    bool feasible = false;
    for (int round = 0; round < options.negotiation_rounds && !feasible;
         ++round) {
      for (const std::size_t i : order) {
        const NetId parent = routing.two_pin_nets[i].parent;
        usage.Remove(routing.routes[i], parent);
        const auto cost = [&](SegmentIndex seg) {
          const int others = usage.UsageExcluding(seg, parent);
          const int overuse = std::max(0, others + 1 - capacity);
          return 1.0 + present_factor * overuse +
                 options.history_factor *
                     history[static_cast<std::size_t>(seg)];
        };
        auto path = search.FindPath(from[i], to[i], cost);
        assert(path.has_value());
        routing.routes[i] = std::move(*path);
        usage.Add(routing.routes[i], parent);
      }
      // Accumulate history on overused segments; raise the pressure.
      for (SegmentIndex seg = 0; seg < arch.num_segments(); ++seg) {
        const int overuse = std::max(0, usage.Usage(seg) - capacity);
        history[static_cast<std::size_t>(seg)] += overuse;
      }
      present_factor *= options.present_factor_growth;
      feasible = (usage.TotalOveruse(capacity) == 0);
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
