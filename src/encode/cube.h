// Cubes: conjunctions of literals over a CSP variable's indexing Booleans.
//
// Every encoding in the paper assigns each domain value an "indexing Boolean
// pattern" (§2) — a (possibly partial) assignment to the variable's indexing
// Booleans that selects the value. We represent a pattern as a cube: the
// conjunction of the literals forced true by the pattern. All machinery that
// is shared across encodings (conflict clauses, symmetry restrictions, model
// decoding) operates on cubes only:
//   * conflict clause for value d on edge {v, w}:  ~cube_v(d) \/ ~cube_w(d)
//   * forbidding value d at vertex v:              ~cube_v(d)
//   * decoding:                                    d selected iff cube true.
#pragma once

#include <vector>

#include "sat/types.h"

namespace satfr::sat {
class ClauseSink;
}

namespace satfr::encode {

/// A conjunction of literals over encoder-local variables 0..n-1.
using Cube = std::vector<sat::Lit>;

/// The clause ~l1 \/ ~l2 \/ ... for cube l1 /\ l2 /\ ..., with every
/// variable shifted by `var_offset` (to place encoder-local variables into
/// the global CNF variable space).
sat::Clause NegateCube(const Cube& cube, int var_offset);

/// Clause asserting that cubes `a` (at offset_a) and `b` (at offset_b) are
/// not simultaneously true — the paper's conflict clause (§4 example).
sat::Clause ConflictClause(const Cube& a, int offset_a, const Cube& b,
                           int offset_b);

/// True if every literal of `cube` (shifted by var_offset) holds in `model`.
bool CubeSatisfied(const Cube& cube, int var_offset,
                   const std::vector<bool>& model);

/// Concatenation a /\ b where b's variables are shifted by `b_offset`
/// relative to a's numbering (used to stack hierarchy levels).
Cube ConcatCubes(const Cube& a, const Cube& b, int b_offset);

/// Shifts every variable in the clause by `var_offset`.
sat::Clause ShiftClause(const sat::Clause& clause, int var_offset);

// Streaming variants: build the shifted clause in `scratch` (capacity reused
// across calls) and emit it into `sink`, producing the exact literal order
// of the materializing functions above. These are the inner loops of
// EncodeColoringToSink.

/// Emits ShiftClause(clause, var_offset) into `sink`.
void EmitShiftedClause(const sat::Clause& clause, int var_offset,
                       sat::ClauseSink& sink, sat::Clause& scratch);

/// Emits NegateCube(cube, var_offset) into `sink`.
void EmitNegatedCube(const Cube& cube, int var_offset, sat::ClauseSink& sink,
                     sat::Clause& scratch);

/// Emits ConflictClause(a, offset_a, b, offset_b) into `sink`.
void EmitConflictClause(const Cube& a, int offset_a, const Cube& b,
                        int offset_b, sat::ClauseSink& sink,
                        sat::Clause& scratch);

/// Emits ConflictClause(a, offset_a, b, offset_b) with `guard` appended —
/// the cross-group guard of the net-grouped emission (see
/// flow::RoutingSession): the clause is vacuous whenever `guard` is true.
void EmitGuardedConflictClause(const Cube& a, int offset_a, const Cube& b,
                               int offset_b, sat::Lit guard,
                               sat::ClauseSink& sink, sat::Clause& scratch);

}  // namespace satfr::encode
