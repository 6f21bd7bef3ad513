// The AnalysisPass interface and the artifact bundle passes inspect.
//
// The flow produces artifacts at three layers — the conflict graph, the
// encoded coloring (CNF + per-vertex variable numbering + stats), and the
// raw CNF — and satlint checks contracts at each. A pass declares which
// artifacts it needs via Applicable(); the runner skips passes whose inputs
// are absent, so the same pipeline lints a bare DIMACS file, a .col graph,
// or a full in-process encoding run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.h"
#include "graph/graph.h"
#include "sat/cnf.h"

namespace satfr::encode {
struct EncodedColoring;
struct EncodingSpec;
struct NetGroupTable;
}  // namespace satfr::encode
namespace satfr::route {
struct GlobalRouting;
}  // namespace satfr::route
namespace satfr::obs {
struct RunRecord;
}  // namespace satfr::obs

namespace satfr::analysis {

/// True if every literal is valid and on an allocated variable. Passes
/// other than cnf-var-range skip (or, if they load the CNF into a solver,
/// do not apply to) input that fails this; the range pass reports it.
inline bool ClauseInRange(const sat::Clause& clause, int num_vars) {
  return std::all_of(clause.begin(), clause.end(), [num_vars](sat::Lit l) {
    return l.IsValid() && l.var() < num_vars;
  });
}

/// One sampled verdict-cache audit: the routing service re-solved a cached
/// entry's instance fresh and recorded both answers (plus a track-validity
/// re-check for SAT verdicts). Pure data — produced by src/service/, judged
/// by the service-cache-coherence pass, so the analysis layer never links
/// against the service.
struct CoherenceSample {
  std::string key;             // CacheKey::ToString of the audited entry
  std::string cached_verdict;  // sat::ToString of the cached status
  std::string fresh_verdict;   // sat::ToString of the fresh re-solve
  std::uint64_t hit_count = 0; // times the cached entry was served
  bool tracks_checked = false; // true when the cached verdict was SAT
  bool tracks_valid = false;   // cached tracks proper on the entry's graph
};

/// Everything a pipeline run may look at. All pointers are optional and
/// non-owning; the encoding-contract layer needs `cnf`, `conflict_graph`,
/// `encoded` and `spec` together. `symmetry_sequence` may stay null for
/// "no symmetry breaking".
struct AnalysisInput {
  const sat::Cnf* cnf = nullptr;
  const graph::Graph* conflict_graph = nullptr;
  const encode::EncodedColoring* encoded = nullptr;
  const encode::EncodingSpec* spec = nullptr;
  const std::vector<graph::VertexId>* symmetry_sequence = nullptr;
  const route::GlobalRouting* routing = nullptr;
  // Net-group table of a grouped encode (encode::NetGroupedSink). The
  // net-group-hygiene pass needs it together with `cnf`, and the Cnf must
  // have been collected through the same NetGroupedSink chain (starting
  // empty) so clause index i is group ordinal i.
  const encode::NetGroupTable* net_groups = nullptr;
  // With `net_groups`: the first assumption selector of a RoutingSession
  // stream (its base layout's num_vars; the width-ladder guards and then
  // the activation variables follow). Selectors occur with one polarity by
  // construction, so the pure-variable pass skips every variable from here
  // on, and from net_groups->first_activation_var on when this is -1.
  sat::Var first_selector_var = -1;
  // Run-report records (`satlint report <file.jsonl>`), checked by the
  // telemetry layer's consistency passes.
  const std::vector<obs::RunRecord>* run_records = nullptr;
  // Verdict-cache audit samples (`satfr serve --selfcheck`), judged by the
  // service-cache-coherence pass.
  const std::vector<CoherenceSample>* coherence_samples = nullptr;

  bool HasEncoding() const {
    return cnf != nullptr && conflict_graph != nullptr && encoded != nullptr &&
           spec != nullptr;
  }
};

class AnalysisPass {
 public:
  virtual ~AnalysisPass() = default;

  /// Stable kebab-case identifier, e.g. "cnf-tautology".
  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;

  /// Severity of this pass's findings unless the runner overrides it.
  virtual Severity default_severity() const { return Severity::kError; }

  /// True if every artifact the pass inspects is present in `input`.
  virtual bool Applicable(const AnalysisInput& input) const = 0;

  virtual void Run(const AnalysisInput& input, DiagnosticSink& sink) const = 0;
};

}  // namespace satfr::analysis
