#include "analysis/encoding_passes.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "encode/csp_to_cnf.h"
#include "encode/cube.h"
#include "sat/clause_sink.h"

namespace satfr::analysis {
namespace {

using encode::Cube;
using encode::EncodedColoring;
using encode::EncodingSpec;
using encode::LevelKind;
using encode::LevelSpec;
using sat::Clause;
using sat::Lit;

int BitsFor(int count) {
  int bits = 0;
  while ((1 << bits) < count) ++bits;
  return bits;
}

int LevelVars(LevelKind kind, int count) {
  switch (kind) {
    case LevelKind::kLog:
    case LevelKind::kIteLog:
      return BitsFor(count);
    case LevelKind::kDirect:
    case LevelKind::kMuldirect:
      return count;
    case LevelKind::kIteLinear:
      return count - 1;
  }
  return 0;
}

std::size_t LevelStructural(LevelKind kind, int count) {
  switch (kind) {
    case LevelKind::kLog:
      // Exclusion clause per unused bit pattern.
      return static_cast<std::size_t>((1 << BitsFor(count)) - count);
    case LevelKind::kDirect:
      // One ALO plus pairwise AMO.
      return 1 + static_cast<std::size_t>(count) * (count - 1) / 2;
    case LevelKind::kMuldirect:
      return 1;  // ALO only.
    case LevelKind::kIteLinear:
    case LevelKind::kIteLog:
      return 0;  // Exact-one by construction.
  }
  return 0;
}

int LevelCountForBudget(LevelKind kind, int var_budget) {
  switch (kind) {
    case LevelKind::kLog:
    case LevelKind::kIteLog:
      return 1 << var_budget;
    case LevelKind::kDirect:
    case LevelKind::kMuldirect:
      return var_budget;
    case LevelKind::kIteLinear:
      return var_budget + 1;
  }
  return 0;
}

/// Whether the bottom encoding starting at `levels[first]` falls back to
/// prefix cubes + restriction clauses for a smaller trailing subdomain.
/// Single-level ITE bottoms build a smaller tree instead; nested multi-level
/// bottoms always use the restriction fallback (SpecLevelEncoder default).
bool TailNeedsRestriction(const std::vector<LevelSpec>& levels,
                          std::size_t first) {
  if (levels.size() - first > 1) return true;
  const LevelKind kind = levels[first].kind;
  return kind != LevelKind::kIteLinear && kind != LevelKind::kIteLog;
}

ExpectedDomainShape ShapeRec(const std::vector<LevelSpec>& levels,
                             std::size_t first, int domain_size) {
  const LevelSpec& head = levels[first];
  if (first + 1 == levels.size()) {
    return {LevelVars(head.kind, domain_size),
            LevelStructural(head.kind, domain_size)};
  }
  const int top_count = LevelCountForBudget(head.kind, head.var_budget);
  const int sub_size = (domain_size + top_count - 1) / top_count;
  const int base_size = domain_size / top_count;
  const int num_bigger = domain_size % top_count;
  const ExpectedDomainShape bottom = ShapeRec(levels, first + 1, sub_size);

  ExpectedDomainShape shape;
  shape.num_vars = head.var_budget + bottom.num_vars;
  shape.structural_clauses =
      LevelStructural(head.kind, top_count) + bottom.structural_clauses;
  if (num_bigger != 0) {
    const auto tail_subdomains = static_cast<std::size_t>(top_count -
                                                          num_bigger);
    if (base_size == 0) {
      // Empty subdomains are forbidden outright, one negated cube each.
      shape.structural_clauses += tail_subdomains;
    } else if (TailNeedsRestriction(levels, first + 1)) {
      // Each smaller subdomain forbids its sub_size - base_size unused
      // bottom cubes.
      shape.structural_clauses +=
          tail_subdomains * static_cast<std::size_t>(sub_size - base_size);
    }
  }
  return shape;
}

std::string ClauseText(const Clause& clause) {
  std::string text = "(";
  for (std::size_t i = 0; i < clause.size(); ++i) {
    if (i > 0) text += " \\/ ";
    text += clause[i].ToString();
  }
  return text + ")";
}

/// Literal codes sorted ascending — content-equality normal form.
std::vector<int> SortedCodes(const Clause& clause) {
  std::vector<int> codes;
  codes.reserve(clause.size());
  for (const Lit l : clause) codes.push_back(l.code());
  std::sort(codes.begin(), codes.end());
  return codes;
}

struct CodeVectorHash {
  std::size_t operator()(const std::vector<int>& codes) const {
    std::uint64_t h = 1469598103934665603ull;
    for (const int code : codes) {
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(code));
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

using ClauseMultiset =
    std::unordered_map<std::vector<int>, std::size_t, CodeVectorHash>;

ClauseMultiset BuildClauseMultiset(const sat::Cnf& cnf) {
  ClauseMultiset counts;
  counts.reserve(cnf.clauses().size());
  for (const Clause& clause : cnf.clauses()) {
    ++counts[SortedCodes(clause)];
  }
  return counts;
}

/// Consumes one occurrence of `clause` from `counts`; false if absent.
bool ConsumeClause(ClauseMultiset& counts, const Clause& clause) {
  const auto it = counts.find(SortedCodes(clause));
  if (it == counts.end() || it->second == 0) return false;
  --it->second;
  return true;
}

// ---------------------------------------------------------------------------
// encoding-clause-counts: Table 1 / §4 counts vs. the actual artifact.
// ---------------------------------------------------------------------------
class ClauseCountsPass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "encoding-clause-counts"; }
  std::string_view description() const override {
    return "variable/clause counts must match the Table 1 / §4 formulas";
  }
  bool Applicable(const AnalysisInput& input) const override {
    return input.HasEncoding();
  }
  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    const EncodedColoring& enc = *input.encoded;
    const auto n = static_cast<std::size_t>(
        input.conflict_graph->num_vertices());
    const std::size_t num_edges = input.conflict_graph->num_edges();
    const int k = enc.num_colors;
    const std::size_t m =
        input.symmetry_sequence ? input.symmetry_sequence->size() : 0;

    const ExpectedDomainShape shape =
        ComputeExpectedDomainShape(*input.spec, k);
    const auto check = [&sink](const std::string& what, std::uint64_t actual,
                               std::uint64_t expected) {
      if (actual != expected) {
        sink.Report(what, "expected " + std::to_string(expected) + ", got " +
                              std::to_string(actual));
      }
    };

    check("domain num_vars", static_cast<std::uint64_t>(enc.domain.num_vars),
          static_cast<std::uint64_t>(shape.num_vars));
    check("domain value_cubes", enc.domain.value_cubes.size(),
          static_cast<std::uint64_t>(k));
    check("domain structural clauses", enc.domain.structural.size(),
          shape.structural_clauses);
    check("vertex_offset entries", enc.vertex_offset.size(), n);
    for (std::size_t v = 0; v < enc.vertex_offset.size() && v < n; ++v) {
      const auto expected = static_cast<std::int64_t>(v) * enc.domain.num_vars;
      if (enc.vertex_offset[v] != expected) {
        sink.Report("vertex " + std::to_string(v),
                    "indexing block starts at " +
                        std::to_string(enc.vertex_offset[v]) + ", expected " +
                        std::to_string(expected));
        break;  // The numbering is systematically off; one report suffices.
      }
    }
    check("cnf num_vars", static_cast<std::uint64_t>(enc.cnf.num_vars()),
          n * static_cast<std::uint64_t>(shape.num_vars));
    check("structural clause count", enc.stats.structural_clauses,
          n * shape.structural_clauses);
    check("conflict clause count", enc.stats.conflict_clauses,
          num_edges * static_cast<std::uint64_t>(k));
    std::uint64_t expected_symmetry = 0;
    for (std::size_t j = 0; j < m; ++j) {
      const int width = k - 1 - static_cast<int>(j);
      expected_symmetry += width > 0 ? static_cast<std::uint64_t>(width) : 0;
    }
    check("symmetry clause count", enc.stats.symmetry_clauses,
          expected_symmetry);
    check("cnf clause total",
          static_cast<std::uint64_t>(enc.cnf.clauses().size()),
          enc.stats.structural_clauses + enc.stats.conflict_clauses +
              enc.stats.symmetry_clauses);
  }
};

// ---------------------------------------------------------------------------
// encoding-domain-semantics: every structural-satisfying assignment selects
// at least one value (exactly one when the encoding claims so), and every
// value stays reachable. Exhaustive over the per-vertex template, which the
// paper keeps narrow (indexing Booleans per CSP variable).
// ---------------------------------------------------------------------------
class DomainSemanticsPass final : public AnalysisPass {
 public:
  std::string_view name() const override {
    return "encoding-domain-semantics";
  }
  std::string_view description() const override {
    return "every assignment to the indexing Booleans selects a value";
  }
  bool Applicable(const AnalysisInput& input) const override {
    return input.encoded != nullptr && input.spec != nullptr;
  }
  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    const auto& domain = input.encoded->domain;
    const int w = domain.num_vars;
    const auto k = domain.value_cubes.size();

    // Static cube checks: in-range literals, internally consistent,
    // pairwise distinct.
    bool cubes_ok = true;
    ClauseMultiset seen_cubes;
    for (std::size_t d = 0; d < k; ++d) {
      const Cube& cube = domain.value_cubes[d];
      std::vector<bool> used(static_cast<std::size_t>(w > 0 ? w : 0), false);
      for (const Lit l : cube) {
        if (!l.IsValid() || l.var() >= w) {
          sink.Report("value " + std::to_string(d),
                      "cube literal " + l.ToString() +
                          " outside the indexing block (width " +
                          std::to_string(w) + ")");
          cubes_ok = false;
        } else if (used[static_cast<std::size_t>(l.var())]) {
          sink.Report("value " + std::to_string(d),
                      "cube mentions x" + std::to_string(l.var()) + " twice");
          cubes_ok = false;
        } else {
          used[static_cast<std::size_t>(l.var())] = true;
        }
      }
      std::vector<int> codes;
      codes.reserve(cube.size());
      for (const Lit l : cube) codes.push_back(l.code());
      std::sort(codes.begin(), codes.end());
      if (++seen_cubes[codes] == 2 && w > 0) {
        sink.Report("value " + std::to_string(d),
                    "selection cube duplicates an earlier value's cube");
        cubes_ok = false;
      }
    }
    for (std::size_t i = 0; i < domain.structural.size(); ++i) {
      for (const Lit l : domain.structural[i]) {
        if (!l.IsValid() || l.var() >= w) {
          sink.Report("structural clause " + std::to_string(i),
                      "literal " + l.ToString() +
                          " outside the indexing block (width " +
                          std::to_string(w) + ")");
          cubes_ok = false;
        }
      }
    }
    if (!cubes_ok) return;  // Semantic sweep would misreport on bad cubes.

    if (w > kMaxExhaustiveVars) {
      sink.ReportAt(Severity::kInfo, "domain",
                    "indexing block too wide for the exhaustive semantic "
                    "sweep (" +
                        std::to_string(w) + " > " +
                        std::to_string(kMaxExhaustiveVars) +
                        " variables); only static checks ran");
      return;
    }

    const auto lit_true = [](Lit l, std::uint32_t assignment) {
      const bool value = (assignment >> l.var()) & 1u;
      return l.negated() ? !value : value;
    };
    std::vector<bool> selectable(k, false);
    bool gap_reported = false;
    bool multi_reported = false;
    for (std::uint32_t assignment = 0;
         assignment < (1u << static_cast<unsigned>(w)); ++assignment) {
      const bool structural_ok = std::all_of(
          domain.structural.begin(), domain.structural.end(),
          [&](const Clause& clause) {
            return std::any_of(clause.begin(), clause.end(), [&](Lit l) {
              return lit_true(l, assignment);
            });
          });
      if (!structural_ok) continue;
      std::size_t selected = 0;
      for (std::size_t d = 0; d < k; ++d) {
        const Cube& cube = domain.value_cubes[d];
        if (std::all_of(cube.begin(), cube.end(), [&](Lit l) {
              return lit_true(l, assignment);
            })) {
          selectable[d] = true;
          ++selected;
        }
      }
      if (selected == 0 && !gap_reported) {
        sink.Report("assignment " + std::to_string(assignment),
                    "satisfies every structural clause but selects no value "
                    "(decoding would fail)");
        gap_reported = true;
      }
      if (selected > 1 && domain.exactly_one && !multi_reported) {
        sink.Report("assignment " + std::to_string(assignment),
                    "selects " + std::to_string(selected) +
                        " values although the encoding claims exactly-one");
        multi_reported = true;
      }
    }
    for (std::size_t d = 0; d < k; ++d) {
      if (!selectable[d]) {
        sink.Report("value " + std::to_string(d),
                    "unreachable: no structural-satisfying assignment "
                    "selects it");
      }
    }
  }

 private:
  static constexpr int kMaxExhaustiveVars = 16;
};

// ---------------------------------------------------------------------------
// encoding-vertex-structure: every vertex's indexing block carries the full
// shifted copy of the domain template's structural clauses.
// ---------------------------------------------------------------------------
class VertexStructurePass final : public AnalysisPass {
 public:
  std::string_view name() const override {
    return "encoding-vertex-structure";
  }
  std::string_view description() const override {
    return "per-vertex structural clauses must instantiate the template";
  }
  bool Applicable(const AnalysisInput& input) const override {
    return input.HasEncoding();
  }
  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    const EncodedColoring& enc = *input.encoded;
    ClauseMultiset counts = BuildClauseMultiset(enc.cnf);
    const auto n = std::min<std::size_t>(
        enc.vertex_offset.size(),
        static_cast<std::size_t>(input.conflict_graph->num_vertices()));
    for (std::size_t v = 0; v < n; ++v) {
      const int offset = enc.vertex_offset[v];
      for (std::size_t i = 0; i < enc.domain.structural.size(); ++i) {
        const Clause shifted =
            encode::ShiftClause(enc.domain.structural[i], offset);
        if (!ConsumeClause(counts, shifted)) {
          sink.Report("vertex " + std::to_string(v),
                      "missing structural clause " + std::to_string(i) + " " +
                          ClauseText(shifted));
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// encoding-conflict-edges: clauses spanning two vertex blocks are exactly
// the conflict clauses of registered conflict-graph edges.
// ---------------------------------------------------------------------------
class ConflictEdgesPass final : public AnalysisPass {
 public:
  std::string_view name() const override { return "encoding-conflict-edges"; }
  std::string_view description() const override {
    return "cross-vertex clauses <-> one conflict clause per edge per color";
  }
  bool Applicable(const AnalysisInput& input) const override {
    return input.HasEncoding();
  }
  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    const EncodedColoring& enc = *input.encoded;
    const graph::Graph& g = *input.conflict_graph;
    const int w = enc.domain.num_vars;
    if (w <= 0) {
      sink.ReportAt(Severity::kInfo, "domain",
                    "no indexing variables (K = 1); conflict clauses are "
                    "empty and cannot be attributed to edges");
      return;
    }

    // Expected multiset: one conflict clause per edge per color.
    ClauseMultiset expected;
    std::unordered_map<std::vector<int>, std::string, CodeVectorHash> origin;
    for (const auto& [u, v] : g.Edges()) {
      const int offset_u = enc.vertex_offset[static_cast<std::size_t>(u)];
      const int offset_v = enc.vertex_offset[static_cast<std::size_t>(v)];
      for (std::size_t d = 0; d < enc.domain.value_cubes.size(); ++d) {
        const Cube& cube = enc.domain.value_cubes[d];
        const std::vector<int> key = SortedCodes(
            encode::ConflictClause(cube, offset_u, cube, offset_v));
        ++expected[key];
        origin.emplace(key, "edge {" + std::to_string(u) + ", " +
                                std::to_string(v) + "} color " +
                                std::to_string(d));
      }
    }

    const auto& clauses = enc.cnf.clauses();
    const int num_vars = enc.cnf.num_vars();
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      const Clause& clause = clauses[i];
      std::set<int> blocks;
      bool in_range = true;
      for (const Lit l : clause) {
        if (!l.IsValid() || l.var() >= num_vars) {
          in_range = false;  // cnf-var-range owns reporting these.
          break;
        }
        blocks.insert(l.var() / w);
      }
      if (!in_range || blocks.size() < 2) continue;
      const std::string location = "clause " + std::to_string(i);
      if (blocks.size() > 2) {
        sink.Report(location,
                    "spans " + std::to_string(blocks.size()) +
                        " vertex blocks; only pairwise conflict clauses may "
                        "cross blocks");
        continue;
      }
      const int u = *blocks.begin();
      const int v = *std::next(blocks.begin());
      if (u >= g.num_vertices() || v >= g.num_vertices() ||
          !g.HasEdge(u, v)) {
        sink.Report(location,
                    "couples vertices " + std::to_string(u) + " and " +
                        std::to_string(v) +
                        " which share no conflict-graph edge");
        continue;
      }
      const auto it = expected.find(SortedCodes(clause));
      if (it == expected.end() || it->second == 0) {
        sink.Report(location,
                    "cross-vertex clause " + ClauseText(clause) +
                        " is not (or no longer) an expected conflict clause "
                        "of edge {" +
                        std::to_string(u) + ", " + std::to_string(v) + "}");
        continue;
      }
      --it->second;
    }

    std::size_t missing = 0;
    std::string example;
    for (const auto& [key, count] : expected) {
      if (count == 0) continue;
      missing += count;
      if (example.empty()) example = origin[key];
    }
    if (missing > 0) {
      sink.Report("conflict clauses",
                  std::to_string(missing) +
                      " expected conflict clause(s) missing (e.g. " + example +
                      ")");
    }
  }
};

// ---------------------------------------------------------------------------
// encoding-symmetry-prefix: the b1/s1 sequence is legal and its
// restriction clauses are all present.
// ---------------------------------------------------------------------------
class SymmetryPrefixPass final : public AnalysisPass {
 public:
  std::string_view name() const override {
    return "encoding-symmetry-prefix";
  }
  std::string_view description() const override {
    return "symmetry sequence legality, restriction clauses";
  }
  bool Applicable(const AnalysisInput& input) const override {
    return input.HasEncoding() && input.symmetry_sequence != nullptr;
  }
  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    const EncodedColoring& enc = *input.encoded;
    const std::vector<graph::VertexId>& seq = *input.symmetry_sequence;
    if (seq.empty()) return;
    const int k = enc.num_colors;
    const auto n = static_cast<graph::VertexId>(
        input.conflict_graph->num_vertices());

    if (static_cast<int>(seq.size()) > k - 1) {
      sink.Report("sequence",
                  "length " + std::to_string(seq.size()) +
                      " exceeds K - 1 = " + std::to_string(k - 1) +
                      "; restricting more vertices than colors can break "
                      "K-colorability");
      return;
    }
    std::set<graph::VertexId> distinct;
    bool legal = true;
    for (std::size_t j = 0; j < seq.size(); ++j) {
      const graph::VertexId v = seq[j];
      if (v < 0 || v >= n) {
        sink.Report("sequence position " + std::to_string(j),
                    "vertex " + std::to_string(v) + " out of range [0, " +
                        std::to_string(n) + ")");
        legal = false;
      } else if (!distinct.insert(v).second) {
        sink.Report("sequence position " + std::to_string(j),
                    "vertex " + std::to_string(v) +
                        " appears twice; restrictions would conflict");
        legal = false;
      }
    }
    if (!legal) return;

    // Restriction clauses present: position j forbids colors > j.
    ClauseMultiset counts = BuildClauseMultiset(enc.cnf);
    for (std::size_t j = 0; j < seq.size(); ++j) {
      const int offset = enc.vertex_offset[static_cast<std::size_t>(seq[j])];
      for (int d = static_cast<int>(j) + 1; d < k; ++d) {
        const Clause restriction = encode::NegateCube(
            enc.domain.value_cubes[static_cast<std::size_t>(d)], offset);
        if (!ConsumeClause(counts, restriction)) {
          sink.Report("sequence position " + std::to_string(j),
                      "vertex " + std::to_string(seq[j]) +
                          ": missing restriction clause forbidding color " +
                          std::to_string(d));
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// encoding-sink-equivalence: re-running the encoder through the streaming
// entry point (EncodeColoringToSink) must replay the materialized Cnf clause
// for clause — the guarantee that lets the default solve path skip the
// intermediate Cnf entirely.
// ---------------------------------------------------------------------------

/// Sink that diffs the incoming stream against an existing Cnf in order.
class VerifyAgainstCnfSink final : public sat::ClauseSink {
 public:
  explicit VerifyAgainstCnfSink(const sat::Cnf& reference)
      : reference_(reference) {}

  bool HasMismatch() const { return first_mismatch_ >= 0; }
  std::int64_t first_mismatch() const { return first_mismatch_; }
  const std::string& mismatch_detail() const { return mismatch_detail_; }

 protected:
  void DoEmit(const Lit* lits, std::size_t n) override {
    if (first_mismatch_ >= 0) return;  // first divergence suffices
    const std::size_t index = static_cast<std::size_t>(num_clauses_ - 1);
    if (index >= reference_.num_clauses()) {
      first_mismatch_ = static_cast<std::int64_t>(index);
      mismatch_detail_ = "stream emits clause " + std::to_string(index) +
                         " but the materialized CNF has only " +
                         std::to_string(reference_.num_clauses());
      return;
    }
    const Clause& expected = reference_.clauses()[index];
    if (expected.size() != n ||
        !std::equal(expected.begin(), expected.end(), lits)) {
      first_mismatch_ = static_cast<std::int64_t>(index);
      mismatch_detail_ = "streamed " + ClauseText(Clause(lits, lits + n)) +
                         ", materialized " + ClauseText(expected);
    }
  }

 private:
  const sat::Cnf& reference_;
  std::int64_t first_mismatch_ = -1;
  std::string mismatch_detail_;
};

class SinkEquivalencePass final : public AnalysisPass {
 public:
  std::string_view name() const override {
    return "encoding-sink-equivalence";
  }
  std::string_view description() const override {
    return "streamed emission must replay the materialized CNF exactly";
  }
  // Re-encoding requires a sequence of at most K - 1 in-range vertices;
  // encoding-symmetry-prefix reports any other sequence.
  bool Applicable(const AnalysisInput& input) const override {
    if (!input.HasEncoding()) return false;
    if (input.symmetry_sequence == nullptr) return true;
    const std::vector<graph::VertexId>& seq = *input.symmetry_sequence;
    const graph::VertexId n = input.conflict_graph->num_vertices();
    return (seq.empty() ||
            static_cast<int>(seq.size()) < input.encoded->num_colors) &&
           std::all_of(seq.begin(), seq.end(),
                       [n](graph::VertexId v) { return v >= 0 && v < n; });
  }
  void Run(const AnalysisInput& input, DiagnosticSink& sink) const override {
    const EncodedColoring& enc = *input.encoded;
    const std::vector<graph::VertexId> empty_sequence;
    const std::vector<graph::VertexId>& seq =
        input.symmetry_sequence ? *input.symmetry_sequence : empty_sequence;

    VerifyAgainstCnfSink verify(enc.cnf);
    const encode::ColoringLayout layout = encode::EncodeColoringToSink(
        *input.conflict_graph, enc.num_colors, *input.spec, seq, verify);
    verify.Finish();

    if (verify.HasMismatch()) {
      sink.Report("clause " + std::to_string(verify.first_mismatch()),
                  "stream diverges from the materialized CNF: " +
                      verify.mismatch_detail());
    }
    if (verify.num_clauses() != enc.cnf.num_clauses()) {
      sink.Report("clause total",
                  "stream emitted " + std::to_string(verify.num_clauses()) +
                      " clauses, materialized CNF has " +
                      std::to_string(enc.cnf.num_clauses()));
    }
    if (layout.num_vars != enc.cnf.num_vars() ||
        verify.num_vars() != enc.cnf.num_vars()) {
      sink.Report("num_vars",
                  "stream declared " + std::to_string(layout.num_vars) +
                      " variables, materialized CNF has " +
                      std::to_string(enc.cnf.num_vars()));
    }
    if (layout.vertex_offset != enc.vertex_offset) {
      sink.Report("vertex_offset",
                  "streamed layout numbers vertex blocks differently from "
                  "the materialized encoding");
    }
    const std::uint64_t expected_total = encode::ExpectedColoringClauses(
        *input.conflict_graph, enc.domain, enc.num_colors, seq.size());
    if (expected_total != verify.num_clauses()) {
      sink.Report("ExpectedColoringClauses",
                  "reserve formula predicts " + std::to_string(expected_total) +
                      " clauses, stream emitted " +
                      std::to_string(verify.num_clauses()));
    }
  }
};

}  // namespace

ExpectedDomainShape ComputeExpectedDomainShape(const EncodingSpec& spec,
                                               int domain_size) {
  return ShapeRec(spec.levels, 0, domain_size);
}

void AddEncodingPasses(AnalysisRunner& runner) {
  runner.AddPass(std::make_unique<ClauseCountsPass>());
  runner.AddPass(std::make_unique<DomainSemanticsPass>());
  runner.AddPass(std::make_unique<VertexStructurePass>());
  runner.AddPass(std::make_unique<ConflictEdgesPass>());
  runner.AddPass(std::make_unique<SymmetryPrefixPass>());
  runner.AddPass(std::make_unique<SinkEquivalencePass>());
}

}  // namespace satfr::analysis
