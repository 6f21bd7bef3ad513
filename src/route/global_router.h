// Negotiated-congestion global router (PathFinder-style).
//
// Stands in for the SEGA-1.1 global routings the paper builds on: given a
// placed netlist it produces one fixed global route per 2-pin net while
// minimizing peak channel congestion. The router first routes everything on
// shortest paths, then repeatedly tightens a capacity target and negotiates
// (rip-up & reroute with growing present-congestion penalties and
// accumulated history costs) until the target becomes infeasible or reaches
// CapacityLowerBound; the best feasible routing is returned. Fully
// deterministic.
//
// Capacity counts distinct parent nets per segment, kept in one flat array
// of counts. 2-pin nets of one parent may share segments, so before a net
// is ripped up (or first added) the segments of its siblings — the other
// 2-pin nets of the same parent — are stamped with a fresh generation; the
// net's route changes a segment's count only where no stamp is, and the
// cost of a segment to that net is its count minus its stamp. Every count
// lookup is one array read.
#pragma once

#include "fpga/device_graph.h"
#include "netlist/netlist.h"
#include "netlist/placement.h"
#include "route/global_routing.h"

namespace satfr::route {

struct GlobalRouterOptions {
  /// How multi-pin nets split into 2-pin nets (§2 leaves this open; star is
  /// the default and what the benches calibrate against).
  Decomposition decomposition = Decomposition::kStar;
  /// Rip-up-and-reroute sweeps attempted per capacity target.
  int negotiation_rounds = 25;
};

/// Cut lower bound on the peak distinct-parent congestion of any global
/// routing of `nets`: the maximum, over rectangles of switch nodes touching
/// at least two grid borders, of ceil(parents with pins both inside and
/// outside / segments crossing the rectangle's boundary). Every such parent
/// has a 2-pin route leaving the rectangle, so no capacity below the bound
/// is feasible. Independent of the 2-pin decomposition.
int CapacityLowerBound(const fpga::Arch& arch, const netlist::Netlist& nets,
                       const netlist::Placement& placement);

GlobalRouting RouteGlobally(const fpga::DeviceGraph& device,
                            const netlist::Netlist& nets,
                            const netlist::Placement& placement,
                            const GlobalRouterOptions& options = {});

}  // namespace satfr::route
