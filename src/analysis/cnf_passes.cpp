#include "analysis/cnf_passes.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "encode/net_group.h"

namespace satfr::analysis {
namespace {

using sat::Clause;
using sat::Cnf;
using sat::Lit;

std::string ClauseLocation(std::size_t index) {
  return "clause " + std::to_string(index);
}

std::string ClauseText(const Clause& clause) {
  std::string text = "(";
  for (std::size_t i = 0; i < clause.size(); ++i) {
    if (i > 0) text += " \\/ ";
    text += clause[i].ToString();
  }
  return text + ")";
}

/// Literal codes sorted ascending; the shared normal form for duplicate /
/// subsumption tests (x and ~x stay adjacent: codes 2v and 2v+1).
std::vector<int> SortedCodes(const Clause& clause) {
  std::vector<int> codes;
  codes.reserve(clause.size());
  for (const Lit l : clause) codes.push_back(l.code());
  std::sort(codes.begin(), codes.end());
  return codes;
}

struct CodeVectorHash {
  std::size_t operator()(const std::vector<int>& codes) const {
    // FNV-1a over the code stream.
    std::uint64_t h = 1469598103934665603ull;
    for (const int code : codes) {
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(code));
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

class VarRangePass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "cnf-var-range"; }
  std::string_view description() const override {
    return "literals must be valid and on allocated variables";
  }
  bool Applicable(const AnalysisInput& input) const override {
    return input.cnf != nullptr;
  }
  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    const auto& clauses = input.cnf->clauses();
    const int num_vars = input.cnf->num_vars();
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      for (const Lit l : clauses[i]) {
        if (!l.IsValid()) {
          sink.Report(ClauseLocation(i), "invalid literal (negative code)");
        } else if (l.var() >= num_vars) {
          sink.Report(ClauseLocation(i),
                      "literal " + l.ToString() + " on unallocated variable (" +
                          std::to_string(num_vars) + " allocated)");
        }
      }
    }
  }
};

class TautologyPass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "cnf-tautology"; }
  std::string_view description() const override {
    return "clauses containing both x and ~x are always true";
  }
  Severity default_severity() const override { return Severity::kWarning; }
  bool Applicable(const AnalysisInput& input) const override {
    return input.cnf != nullptr;
  }
  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    const auto& clauses = input.cnf->clauses();
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      if (!ClauseInRange(clauses[i], input.cnf->num_vars())) continue;
      const std::vector<int> codes = SortedCodes(clauses[i]);
      for (std::size_t j = 1; j < codes.size(); ++j) {
        if ((codes[j] ^ 1) == codes[j - 1]) {
          sink.Report(ClauseLocation(i),
                      "tautological: contains x" +
                          std::to_string(codes[j] >> 1) +
                          " in both polarities");
          break;
        }
      }
    }
  }
};

class DuplicateClausePass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "cnf-duplicate-clause"; }
  std::string_view description() const override {
    return "exact duplicates (as literal multisets) of earlier clauses";
  }
  Severity default_severity() const override { return Severity::kWarning; }
  bool Applicable(const AnalysisInput& input) const override {
    return input.cnf != nullptr;
  }
  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    const auto& clauses = input.cnf->clauses();
    std::unordered_map<std::vector<int>, std::size_t, CodeVectorHash> first;
    first.reserve(clauses.size());
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      if (!ClauseInRange(clauses[i], input.cnf->num_vars())) continue;
      const auto [it, inserted] = first.emplace(SortedCodes(clauses[i]), i);
      if (!inserted) {
        sink.Report(ClauseLocation(i),
                    "exact duplicate of clause " + std::to_string(it->second) +
                        " " + ClauseText(clauses[i]));
      }
    }
  }
};

class SubsumedBinaryPass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "cnf-subsumed-binary"; }
  std::string_view description() const override {
    return "clauses subsumed by a unit or binary clause are redundant";
  }
  Severity default_severity() const override { return Severity::kInfo; }
  bool Applicable(const AnalysisInput& input) const override {
    return input.cnf != nullptr;
  }
  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    const auto& clauses = input.cnf->clauses();
    const int num_vars = input.cnf->num_vars();
    // Index the subsuming candidates: unit literals and binary code pairs.
    std::unordered_set<int> units;
    std::unordered_set<std::uint64_t> binaries;
    const auto pair_key = [](int a, int b) {
      if (a > b) std::swap(a, b);
      return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a))
              << 32) |
             static_cast<std::uint32_t>(b);
    };
    for (const Clause& clause : clauses) {
      if (!ClauseInRange(clause, num_vars)) continue;
      if (clause.size() == 1) {
        units.insert(clause[0].code());
      } else if (clause.size() == 2 && clause[0] != clause[1]) {
        binaries.insert(pair_key(clause[0].code(), clause[1].code()));
      }
    }
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      const Clause& clause = clauses[i];
      if (clause.size() < 2 || !ClauseInRange(clause, num_vars)) continue;
      bool reported = false;
      for (const Lit l : clause) {
        if (units.count(l.code()) != 0) {
          sink.Report(ClauseLocation(i), "subsumed by unit clause (" +
                                             l.ToString() + ")");
          reported = true;
          break;
        }
      }
      if (reported || clause.size() < 3) continue;
      for (std::size_t a = 0; a < clause.size() && !reported; ++a) {
        for (std::size_t b = a + 1; b < clause.size(); ++b) {
          if (clause[a] == clause[b]) continue;
          if (binaries.count(pair_key(clause[a].code(), clause[b].code())) !=
              0) {
            sink.Report(ClauseLocation(i),
                        "subsumed by binary clause (" + clause[a].ToString() +
                            " \\/ " + clause[b].ToString() + ")");
            reported = true;
            break;
          }
        }
      }
    }
  }
};

/// Shared polarity census for the unused/pure passes.
struct PolarityCensus {
  std::vector<std::size_t> positive;
  std::vector<std::size_t> negative;

  explicit PolarityCensus(const Cnf& cnf)
      : positive(static_cast<std::size_t>(cnf.num_vars()), 0),
        negative(static_cast<std::size_t>(cnf.num_vars()), 0) {
    for (const Clause& clause : cnf.clauses()) {
      if (!ClauseInRange(clause, cnf.num_vars())) continue;
      for (const Lit l : clause) {
        auto& column = l.negated() ? negative : positive;
        ++column[static_cast<std::size_t>(l.var())];
      }
    }
  }
};

class UnusedVarPass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "cnf-unused-var"; }
  std::string_view description() const override {
    return "allocated variables referenced by no clause";
  }
  Severity default_severity() const override { return Severity::kWarning; }
  bool Applicable(const AnalysisInput& input) const override {
    return input.cnf != nullptr;
  }
  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    const PolarityCensus census(*input.cnf);
    for (int v = 0; v < input.cnf->num_vars(); ++v) {
      const auto idx = static_cast<std::size_t>(v);
      if (census.positive[idx] == 0 && census.negative[idx] == 0) {
        sink.Report("var x" + std::to_string(v),
                    "allocated but never referenced");
      }
    }
  }
};

class PureVarPass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "cnf-pure-var"; }
  std::string_view description() const override {
    return "variables appearing with a single polarity only";
  }
  Severity default_severity() const override { return Severity::kInfo; }
  bool Applicable(const AnalysisInput& input) const override {
    return input.cnf != nullptr;
  }
  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    const PolarityCensus census(*input.cnf);
    // A grouped stream's selectors appear only negated until an assumption
    // or toggle sets them; they are not findings.
    sat::Var selectors = input.cnf->num_vars();
    if (input.net_groups != nullptr) {
      for (const sat::Var first : {input.first_selector_var,
                              input.net_groups->first_activation_var}) {
        if (first >= 0) selectors = std::min(selectors, first);
      }
    }
    for (int v = 0; v < selectors; ++v) {
      const auto idx = static_cast<std::size_t>(v);
      const std::size_t pos = census.positive[idx];
      const std::size_t neg = census.negative[idx];
      if (pos + neg == 0 || (pos != 0 && neg != 0)) continue;
      sink.Report("var x" + std::to_string(v),
                  std::string("polarity-pure: appears only ") +
                      (pos != 0 ? "positively" : "negatively") + " (" +
                      std::to_string(pos + neg) + " occurrences)");
    }
  }
};

}  // namespace

void AddCnfPasses(AnalysisRunner& runner) {
  runner.AddPass(std::make_unique<VarRangePass>());
  runner.AddPass(std::make_unique<TautologyPass>());
  runner.AddPass(std::make_unique<DuplicateClausePass>());
  runner.AddPass(std::make_unique<UnusedVarPass>());
  runner.AddPass(std::make_unique<SubsumedBinaryPass>());
  runner.AddPass(std::make_unique<PureVarPass>());
}

}  // namespace satfr::analysis
