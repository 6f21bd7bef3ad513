#include "graph/dimacs_col.h"

#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/strings.h"

namespace satfr::graph {

void WriteDimacsCol(const Graph& g, std::ostream& out,
                    const std::vector<std::string>& comments) {
  for (const std::string& comment : comments) {
    out << "c " << comment << '\n';
  }
  out << "p edge " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.Edges()) {
    out << "e " << (u + 1) << ' ' << (v + 1) << '\n';
  }
}

bool WriteDimacsColFile(const Graph& g, const std::string& path,
                        const std::vector<std::string>& comments) {
  std::ofstream out(path);
  if (!out) return false;
  WriteDimacsCol(g, out, comments);
  return static_cast<bool>(out);
}

std::optional<Graph> ParseDimacsCol(std::istream& in) {
  std::string line;
  long declared_vertices = -1;
  Graph g;
  while (std::getline(in, line)) {
    const std::string_view trimmed = satfr::Trim(line);
    if (trimmed.empty() || trimmed[0] == 'c') continue;
    const auto tokens = satfr::SplitWhitespace(trimmed);
    if (tokens[0] == "p") {
      if (tokens.size() != 4 || (tokens[1] != "edge" && tokens[1] != "edges")) {
        return std::nullopt;
      }
      try {
        declared_vertices = std::stol(tokens[2]);
      } catch (const std::exception&) {
        return std::nullopt;
      }
      // A count beyond VertexId would wrap onto a small graph that then
      // accepts the out-of-range `e` ids bounded by it.
      if (declared_vertices < 0 ||
          declared_vertices > std::numeric_limits<VertexId>::max()) {
        return std::nullopt;
      }
      g = Graph(static_cast<VertexId>(declared_vertices));
    } else if (tokens[0] == "e") {
      if (declared_vertices < 0 || tokens.size() != 3) return std::nullopt;
      long u = 0;
      long v = 0;
      try {
        u = std::stol(tokens[1]);
        v = std::stol(tokens[2]);
      } catch (const std::exception&) {
        return std::nullopt;
      }
      if (u < 1 || v < 1 || u > declared_vertices || v > declared_vertices) {
        return std::nullopt;
      }
      g.AddEdge(static_cast<VertexId>(u - 1), static_cast<VertexId>(v - 1));
    } else {
      return std::nullopt;
    }
  }
  if (declared_vertices < 0) return std::nullopt;
  return g;
}

std::optional<Graph> ParseDimacsColString(const std::string& text) {
  std::istringstream in(text);
  return ParseDimacsCol(in);
}

std::optional<Graph> ParseDimacsColFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return ParseDimacsCol(in);
}

}  // namespace satfr::graph
