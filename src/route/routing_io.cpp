#include "route/routing_io.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/strings.h"

namespace satfr::route {
namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

// Parses "H(x,y)" / "V(x,y)" back into a segment index.
std::optional<fpga::SegmentIndex> ParseSegmentName(const fpga::Arch& arch,
                                                   std::string_view token) {
  const std::size_t comma = token.find(',');
  if (token.size() < 6 || token[1] != '(' || token.back() != ')' ||
      comma == std::string_view::npos) {
    return std::nullopt;
  }
  const std::optional<int> x = ParseInt(token.substr(2, comma - 2), 0);
  const std::optional<int> y =
      ParseInt(token.substr(comma + 1, token.size() - comma - 2), 0);
  if (!x || !y) return std::nullopt;
  if (token[0] == 'H') {
    if (*x >= arch.grid_size() || *y >= arch.nodes_per_side()) {
      return std::nullopt;
    }
    return arch.HorizontalSegment(*x, *y);
  }
  if (token[0] == 'V') {
    if (*x >= arch.nodes_per_side() || *y >= arch.grid_size()) {
      return std::nullopt;
    }
    return arch.VerticalSegment(*x, *y);
  }
  return std::nullopt;
}

}  // namespace

void WriteGlobalRouting(const fpga::Arch& arch, const GlobalRouting& routing,
                        std::ostream& out) {
  out << "satfr_routing 1\n";
  out << "grid " << arch.grid_size() << '\n';
  for (std::size_t i = 0; i < routing.routes.size(); ++i) {
    const TwoPinNet& net = routing.two_pin_nets[i];
    out << "route " << net.parent << ' ' << net.source << ' ' << net.sink
        << " :";
    for (const fpga::SegmentIndex seg : routing.routes[i]) {
      out << ' ' << arch.SegmentName(seg);
    }
    out << '\n';
  }
}

bool WriteGlobalRoutingFile(const fpga::Arch& arch,
                            const GlobalRouting& routing,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WriteGlobalRouting(arch, routing, out);
  return static_cast<bool>(out);
}

std::optional<ParsedRouting> ParseGlobalRouting(std::istream& in,
                                                std::string* error) {
  std::string line;
  bool saw_header = false;
  ParsedRouting parsed;
  std::optional<fpga::Arch> arch;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view stripped = Trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto tokens = SplitWhitespace(stripped);
    const std::string where = " (line " + std::to_string(line_number) + ")";
    if (tokens[0] == "satfr_routing") {
      if (tokens.size() != 2 || tokens[1] != "1") {
        Fail(error, "unsupported routing format version" + where);
        return std::nullopt;
      }
      saw_header = true;
    } else if (!saw_header) {
      Fail(error, "missing satfr_routing header" + where);
      return std::nullopt;
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
      parsed.grid_size = *size;
      arch.emplace(parsed.grid_size);
    } else if (tokens[0] == "route") {
      if (!arch) {
        Fail(error, "route before grid" + where);
        return std::nullopt;
      }
      if (tokens.size() < 5 || tokens[4] != ":") {
        Fail(error, "malformed route line" + where);
        return std::nullopt;
      }
      const std::optional<int> parent = ParseInt(tokens[1]);
      const std::optional<int> source = ParseInt(tokens[2]);
      const std::optional<int> sink = ParseInt(tokens[3]);
      if (!parent || !source || !sink) {
        Fail(error, "route parent/source/sink is not an integer" + where);
        return std::nullopt;
      }
      TwoPinNet net;
      net.parent = *parent;
      net.source = *source;
      net.sink = *sink;
      std::vector<fpga::SegmentIndex> segments;
      for (std::size_t t = 5; t < tokens.size(); ++t) {
        const auto seg = ParseSegmentName(*arch, tokens[t]);
        if (!seg) {
          Fail(error, "bad segment '" + tokens[t] + "'" + where);
          return std::nullopt;
        }
        segments.push_back(*seg);
      }
      parsed.routing.two_pin_nets.push_back(net);
      parsed.routing.routes.push_back(std::move(segments));
    } else {
      Fail(error, "unknown directive '" + tokens[0] + "'" + where);
      return std::nullopt;
    }
  }
  if (!saw_header || !arch) {
    Fail(error, "missing header or grid declaration");
    return std::nullopt;
  }
  return parsed;
}

std::optional<ParsedRouting> ParseGlobalRoutingString(const std::string& text,
                                                      std::string* error) {
  std::istringstream in(text);
  return ParseGlobalRouting(in, error);
}

std::optional<ParsedRouting> ParseGlobalRoutingFile(const std::string& path,
                                                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  return ParseGlobalRouting(in, error);
}

}  // namespace satfr::route
