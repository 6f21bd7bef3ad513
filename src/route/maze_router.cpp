#include "route/maze_router.h"

namespace satfr::route {

std::optional<std::vector<fpga::SegmentIndex>> FindShortestPath(
    const fpga::DeviceGraph& device, fpga::NodeId from, fpga::NodeId to) {
  return FindPath(device, from, to, [](fpga::SegmentIndex) { return 1.0; });
}

}  // namespace satfr::route
