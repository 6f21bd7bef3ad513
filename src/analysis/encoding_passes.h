// Encoding-contract lint passes: the encoded coloring must be exactly what
// the paper's framework prescribes.
//
// Driven by the EncodingSpec (registry metadata), the conflict graph, and
// the encoder's own output (EncodedColoring incl. ColoringCnfStats), these
// passes re-derive the expected shape of the CNF from first principles —
// Table 1 clause-count formulas, per-vertex ALO/valid-assignment structure,
// conflict clauses only on registered edges, and a sound b1/s1 symmetry
// prefix — and diff the actual artifact against it.
#pragma once

#include "analysis/runner.h"
#include "encode/hierarchical.h"

namespace satfr::analysis {

/// Expected per-CSP-variable shape of `spec` on a domain of `domain_size`
/// values, derived independently of the encoder (Table 1 formulas for the
/// simple encodings, the §4 composition rules for hierarchies).
struct ExpectedDomainShape {
  int num_vars = 0;
  std::size_t structural_clauses = 0;
};

ExpectedDomainShape ComputeExpectedDomainShape(
    const encode::EncodingSpec& spec, int domain_size);

/// Registers the six encoding-contract passes:
///   encoding-clause-counts    (error) Table 1 / §4 clause + var counts
///   encoding-domain-semantics (error) every assignment selects >= 1 value
///   encoding-vertex-structure (error) per-vertex structural instantiation
///   encoding-conflict-edges   (error) conflict clauses <-> graph edges
///   encoding-symmetry-prefix  (error) b1/s1 prefix legality + restrictions
///   encoding-sink-equivalence (error) streamed emission == materialized Cnf
void AddEncodingPasses(AnalysisRunner& runner);

}  // namespace satfr::analysis
