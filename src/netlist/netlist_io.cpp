#include "netlist/netlist_io.h"

#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/strings.h"

namespace satfr::netlist {
namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

}  // namespace

void WritePlacedNetlist(const Netlist& nets, const Placement& placement,
                        const std::string& circuit_name, std::ostream& out) {
  out << "satfr_netlist 1\n";
  out << "circuit " << circuit_name << '\n';
  out << "grid " << placement.grid_size() << '\n';
  for (BlockId b = 0; b < nets.num_blocks(); ++b) {
    const fpga::Coord c = placement.LocationOf(b);
    out << "block " << nets.block(b).name << ' ' << c.x << ' ' << c.y
        << '\n';
  }
  for (NetId n = 0; n < nets.num_nets(); ++n) {
    const Net& net = nets.net(n);
    out << "net " << net.name << ' ' << nets.block(net.source).name;
    for (const BlockId sink : net.sinks) {
      out << ' ' << nets.block(sink).name;
    }
    out << '\n';
  }
}

bool WritePlacedNetlistFile(const Netlist& nets, const Placement& placement,
                            const std::string& circuit_name,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WritePlacedNetlist(nets, placement, circuit_name, out);
  return static_cast<bool>(out);
}

std::optional<PlacedNetlist> ParsePlacedNetlist(std::istream& in,
                                                std::string* error) {
  std::string line;
  bool saw_header = false;
  int grid = -1;
  std::string circuit_name = "unnamed";
  Netlist nets;
  std::map<std::string, BlockId> block_by_name;
  // Block sites are collected first; the Placement needs the final block
  // count up front.
  std::vector<fpga::Coord> sites;

  struct PendingNet {
    std::string name;
    std::vector<std::string> blocks;  // source first
  };
  std::vector<PendingNet> pending_nets;

  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view stripped = Trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto tokens = SplitWhitespace(stripped);
    const std::string where = " (line " + std::to_string(line_number) + ")";
    if (tokens[0] == "satfr_netlist") {
      if (tokens.size() != 2 || tokens[1] != "1") {
        Fail(error, "unsupported netlist format version" + where);
        return std::nullopt;
      }
      saw_header = true;
    } else if (!saw_header) {
      Fail(error, "missing satfr_netlist header" + where);
      return std::nullopt;
    } else if (tokens[0] == "circuit") {
      if (tokens.size() != 2) {
        Fail(error, "malformed circuit line" + where);
        return std::nullopt;
      }
      circuit_name = tokens[1];
    } else if (tokens[0] == "grid") {
      if (tokens.size() != 2) {
        Fail(error, "malformed grid line" + where);
        return std::nullopt;
      }
      const std::optional<int> size = ParseInt(tokens[1], 1);
      if (!size) {
        Fail(error, "grid size must be an integer >= 1" + where);
        return std::nullopt;
      }
      grid = *size;
    } else if (tokens[0] == "block") {
      if (grid < 1) {
        Fail(error, "block before grid" + where);
        return std::nullopt;
      }
      if (tokens.size() != 4) {
        Fail(error, "malformed block line" + where);
        return std::nullopt;
      }
      if (block_by_name.count(tokens[1]) != 0) {
        Fail(error, "duplicate block '" + tokens[1] + "'" + where);
        return std::nullopt;
      }
      const std::optional<int> x = ParseInt(tokens[2]);
      const std::optional<int> y = ParseInt(tokens[3]);
      if (!x || !y) {
        Fail(error, "block site is not an integer pair" + where);
        return std::nullopt;
      }
      if (*x < 0 || *y < 0 || *x >= grid || *y >= grid) {
        Fail(error, "block site off-grid" + where);
        return std::nullopt;
      }
      block_by_name[tokens[1]] = nets.AddBlock(tokens[1]);
      sites.push_back(fpga::Coord{*x, *y});
    } else if (tokens[0] == "net") {
      if (tokens.size() < 4) {
        Fail(error, "net needs a name, a source and >= 1 sink" + where);
        return std::nullopt;
      }
      PendingNet net;
      net.name = tokens[1];
      net.blocks.assign(tokens.begin() + 2, tokens.end());
      pending_nets.push_back(std::move(net));
    } else {
      Fail(error, "unknown directive '" + tokens[0] + "'" + where);
      return std::nullopt;
    }
  }
  if (!saw_header || grid < 1) {
    Fail(error, "missing header or grid declaration");
    return std::nullopt;
  }

  PlacedNetlist out;
  out.params.name = circuit_name;
  out.params.grid_size = grid;
  out.placement = Placement(grid, nets.num_blocks());
  for (BlockId b = 0; b < nets.num_blocks(); ++b) {
    const fpga::Coord c = sites[static_cast<std::size_t>(b)];
    if (!out.placement.Place(b, c.x, c.y)) {
      Fail(error, "two blocks share site (" + std::to_string(c.x) + "," +
                      std::to_string(c.y) + ")");
      return std::nullopt;
    }
  }
  for (const auto& pending : pending_nets) {
    Net net;
    net.name = pending.name;
    for (std::size_t i = 0; i < pending.blocks.size(); ++i) {
      const auto it = block_by_name.find(pending.blocks[i]);
      if (it == block_by_name.end()) {
        Fail(error, "net '" + pending.name + "' references unknown block '" +
                        pending.blocks[i] + "'");
        return std::nullopt;
      }
      if (i == 0) {
        net.source = it->second;
      } else {
        net.sinks.push_back(it->second);
      }
    }
    nets.AddNet(std::move(net));
  }
  std::string validate_error;
  if (!nets.Validate(&validate_error)) {
    Fail(error, validate_error);
    return std::nullopt;
  }
  out.netlist = std::move(nets);
  out.params.num_nets = out.netlist.num_nets();
  out.params.max_fanout = out.netlist.MaxFanout();
  return out;
}

std::optional<PlacedNetlist> ParsePlacedNetlistString(const std::string& text,
                                                      std::string* error) {
  std::istringstream in(text);
  return ParsePlacedNetlist(in, error);
}

std::optional<PlacedNetlist> ParsePlacedNetlistFile(const std::string& path,
                                                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  return ParsePlacedNetlist(in, error);
}

}  // namespace satfr::netlist
