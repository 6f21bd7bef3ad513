#include "sat/dimacs.h"

#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/strings.h"

namespace satfr::sat {

namespace {
// Counts and literals beyond int cannot be represented; a cast would wrap
// them onto small, valid-looking values.
constexpr long kIntMax = std::numeric_limits<int>::max();
}  // namespace

void WriteDimacs(const Cnf& cnf, std::ostream& out,
                 const std::vector<std::string>& comments) {
  for (const std::string& comment : comments) {
    out << "c " << comment << '\n';
  }
  out << "p cnf " << cnf.num_vars() << ' ' << cnf.num_clauses() << '\n';
  for (const Clause& clause : cnf.clauses()) {
    for (const Lit l : clause) {
      out << l.ToDimacs() << ' ';
    }
    out << "0\n";
  }
}

bool WriteDimacsFile(const Cnf& cnf, const std::string& path,
                     const std::vector<std::string>& comments) {
  std::ofstream out(path);
  if (!out) return false;
  WriteDimacs(cnf, out, comments);
  return static_cast<bool>(out);
}

std::optional<Cnf> ParseDimacs(std::istream& in) {
  std::string line;
  long declared_vars = -1;
  long declared_clauses = -1;
  Cnf cnf;
  Clause current;
  while (std::getline(in, line)) {
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == 'c' || trimmed[0] == '%') {
      continue;
    }
    if (trimmed[0] == 'p') {
      const auto tokens = SplitWhitespace(trimmed);
      if (tokens.size() != 4 || tokens[0] != "p" || tokens[1] != "cnf") {
        return std::nullopt;
      }
      try {
        declared_vars = std::stol(tokens[2]);
        declared_clauses = std::stol(tokens[3]);
      } catch (const std::exception&) {
        return std::nullopt;
      }
      if (declared_vars < 0 || declared_clauses < 0 ||
          declared_vars > kIntMax || declared_clauses > kIntMax) {
        return std::nullopt;
      }
      cnf.EnsureVars(static_cast<int>(declared_vars));
      continue;
    }
    if (declared_vars < 0) return std::nullopt;  // clause before header
    for (const std::string& token : SplitWhitespace(trimmed)) {
      long value = 0;
      try {
        value = std::stol(token);
      } catch (const std::exception&) {
        return std::nullopt;
      }
      if (value < -kIntMax || value > kIntMax) return std::nullopt;
      if (value == 0) {
        cnf.AddClause(std::move(current));
        current.clear();
      } else {
        const long var_index = (value > 0 ? value : -value) - 1;
        if (var_index >= declared_vars) return std::nullopt;
        current.push_back(Lit::FromDimacs(static_cast<int>(value)));
      }
    }
  }
  if (!current.empty()) return std::nullopt;  // unterminated clause
  if (declared_vars < 0) return std::nullopt;
  if (static_cast<long>(cnf.num_clauses()) != declared_clauses) {
    return std::nullopt;
  }
  return cnf;
}

std::optional<Cnf> ParseDimacsString(const std::string& text) {
  std::istringstream in(text);
  return ParseDimacs(in);
}

std::optional<Cnf> ParseDimacsFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return ParseDimacs(in);
}

}  // namespace satfr::sat
