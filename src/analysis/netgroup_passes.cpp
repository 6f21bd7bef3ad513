#include "analysis/netgroup_passes.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "encode/net_group.h"

namespace satfr::analysis {
namespace {

using encode::NetGroup;
using encode::NetGroupTable;
using sat::Clause;
using sat::Lit;
using sat::Var;

std::string GroupLocation(const NetGroup& group) {
  return "net " + std::to_string(group.net) + " epoch " +
         std::to_string(group.epoch);
}

class NetGroupHygienePass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "net-group-hygiene"; }
  std::string_view description() const override {
    return "grouped clauses carry their own activation literal (plus at "
           "most one cross guard); group ranges are disjoint and vacuous "
           "under a false selector";
  }
  bool Applicable(const AnalysisInput& input) const override {
    return input.cnf != nullptr && input.net_groups != nullptr;
  }

  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    const NetGroupTable& table = *input.net_groups;
    const auto& clauses = input.cnf->clauses();
    const auto num_clauses = static_cast<std::uint64_t>(clauses.size());
    const Var first = table.first_activation_var;
    if (table.groups.empty()) return;
    if (first < 0) {
      sink.Report("table", "groups present but first_activation_var unset");
      return;
    }

    // Well-formed ranges and distinct activation variables.
    std::vector<Var> activations;
    activations.reserve(table.groups.size());
    for (const NetGroup& group : table.groups) {
      if (group.activation < first) {
        sink.Report(GroupLocation(group),
                    "activation variable x" +
                        std::to_string(group.activation) +
                        " below first_activation_var x" +
                        std::to_string(first));
      }
      if (group.clause_begin > group.clause_end ||
          group.clause_end > num_clauses) {
        sink.Report(GroupLocation(group),
                    "clause range [" + std::to_string(group.clause_begin) +
                        ", " + std::to_string(group.clause_end) +
                        ") not within the " + std::to_string(num_clauses) +
                        "-clause stream");
        return;  // range arithmetic below would be garbage
      }
      activations.push_back(group.activation);
    }
    std::sort(activations.begin(), activations.end());
    if (std::adjacent_find(activations.begin(), activations.end()) !=
        activations.end()) {
      sink.Report("table", "two groups share an activation variable");
    }

    // Pairwise-disjoint ranges: sorted by begin, each must end before the
    // next begins. Ties sort by end, so an empty range (a net that emitted
    // no clause) precedes the group starting at the same ordinal instead
    // of reading as overlapped by it.
    std::vector<const NetGroup*> by_begin;
    by_begin.reserve(table.groups.size());
    for (const NetGroup& group : table.groups) by_begin.push_back(&group);
    std::sort(by_begin.begin(), by_begin.end(),
              [](const NetGroup* a, const NetGroup* b) {
                return a->clause_begin != b->clause_begin
                           ? a->clause_begin < b->clause_begin
                           : a->clause_end < b->clause_end;
              });
    std::vector<char> in_group(clauses.size(), 0);
    for (std::size_t i = 0; i < by_begin.size(); ++i) {
      if (i + 1 < by_begin.size() &&
          by_begin[i]->clause_end > by_begin[i + 1]->clause_begin) {
        sink.Report(GroupLocation(*by_begin[i]),
                    "range overlaps " + GroupLocation(*by_begin[i + 1]));
      }
      for (std::uint64_t c = by_begin[i]->clause_begin;
           c < by_begin[i]->clause_end && c < num_clauses; ++c) {
        in_group[static_cast<std::size_t>(c)] = 1;
      }
    }

    // Activation variables known to the table, for classifying cross
    // guards: a grouped clause may reference another net's selector, but
    // only negatively and only one (the conflict-clause partner guard).
    std::vector<char> is_selector;
    for (const NetGroup& group : table.groups) {
      const auto index = static_cast<std::size_t>(group.activation - first);
      if (group.activation >= first) {
        if (index >= is_selector.size()) is_selector.resize(index + 1, 0);
        is_selector[index] = 1;
      }
    }
    const auto known_selector = [&](Var v) {
      const auto index = static_cast<std::size_t>(v - first);
      return index < is_selector.size() && is_selector[index] != 0;
    };

    // Every grouped clause carries exactly one copy of its own negated
    // selector — selector false satisfies the clause (deactivated group is
    // vacuous), selector assumed true strips the guard — plus at most one
    // cross guard: another group's selector, also negated, so the clause
    // dies when either net is retired. Positive activation literals and
    // unknown activation-region variables are always defects.
    for (const NetGroup& group : table.groups) {
      for (std::uint64_t c = group.clause_begin; c < group.clause_end; ++c) {
        const Clause& clause = clauses[static_cast<std::size_t>(c)];
        int own = 0;
        int cross = 0;
        int bad = 0;
        for (const Lit l : clause) {
          if (l.var() < first) continue;
          if (l.var() == group.activation && l.negated()) {
            ++own;
          } else if (l.negated() && known_selector(l.var())) {
            ++cross;
          } else {
            ++bad;
          }
        }
        if (own != 1 || cross > 1 || bad != 0) {
          sink.Report(
              GroupLocation(group),
              "clause " + std::to_string(c) + " carries " +
                  std::to_string(own) + " copies of ~x" +
                  std::to_string(group.activation) + ", " +
                  std::to_string(cross) + " cross guard(s), " +
                  std::to_string(bad) +
                  " other activation-region literals (want exactly one "
                  "own guard, at most one cross guard, none other)");
        }
      }
    }

    // Outside every group, activation variables may appear only as the
    // unit toggles that activate/retire a group.
    for (std::size_t c = 0; c < clauses.size(); ++c) {
      if (in_group[c]) continue;
      const Clause& clause = clauses[c];
      const bool touches_activation =
          std::any_of(clause.begin(), clause.end(),
                      [first](Lit l) { return l.var() >= first; });
      if (touches_activation && clause.size() != 1) {
        sink.Report("clause " + std::to_string(c),
                    "ungrouped non-unit clause mentions an activation "
                    "variable");
      }
    }
  }
};

}  // namespace

void AddNetGroupPasses(AnalysisRunner& runner) {
  runner.AddPass(std::make_unique<NetGroupHygienePass>());
}

}  // namespace satfr::analysis
