// CNF-layer lint passes: well-formedness checks on any sat::Cnf.
//
// These passes know nothing about encodings — they catch the defect classes
// any CNF generator can produce: tautological clauses, exact duplicates,
// literals on out-of-range/unallocated variables, clauses subsumed by a
// unit or binary clause, variables that are allocated but never referenced,
// and variables that only ever appear with one polarity.
#pragma once

#include "analysis/runner.h"

namespace satfr::analysis {

/// Registers the six CNF passes, in severity-descending order:
///   cnf-var-range        (error)   invalid literal / unallocated variable
///   cnf-tautology        (warning) clause contains x and ~x
///   cnf-duplicate-clause (warning) exact duplicate of an earlier clause
///   cnf-unused-var       (warning) allocated variable in no clause
///   cnf-subsumed-binary  (info)    clause subsumed by a unit/binary clause
///   cnf-pure-var         (info)    variable appears with one polarity only
///                                  (a grouped stream's selectors excepted)
void AddCnfPasses(AnalysisRunner& runner);

}  // namespace satfr::analysis
