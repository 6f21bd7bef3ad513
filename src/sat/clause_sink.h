// Streaming clause emission: the ClauseSink interface and its standard
// implementations.
//
// The encoding layer used to materialize one monolithic Cnf that the solver
// then re-copied clause by clause into its arena — on large instances the
// intermediate Cnf is pure peak-memory and cache overhead. A ClauseSink
// inverts the flow: encoders push variables and clauses into a sink as they
// are produced, and the sink decides what to do with them — collect them
// into a Cnf (CnfCollectorSink, the back-compat path whose output is
// byte-for-byte the pre-sink encoder output), feed them straight into a
// Solver (SolverSink, the default solve path: zero intermediate
// materialization), stream them to disk (StreamingDimacsSink, so instances
// too big to hold in memory can still be exported), or count them
// (CountingSink, allocation-free statistics).
//
// Contract:
//  * EnsureVars/EmitVar before emitting clauses over those variables.
//  * A clause's literal array is only borrowed for the duration of the
//    EmitClause call; sinks must copy what they keep.
//  * Finish() exactly once after the last emission (header back-patching,
//    flushing). It returns false if the sink has proof the formula is
//    trivially unsatisfiable (SolverSink) or if an I/O
//    error occurred (StreamingDimacsSink).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sat/cnf.h"
#include "sat/types.h"

namespace satfr::sat {

class Solver;

class ClauseSink {
 public:
  virtual ~ClauseSink() = default;

  /// Declares that variables [0, n) exist. Monotone; no-op if the sink
  /// already knows at least `n` variables. Overrides must call the base.
  virtual void EnsureVars(int n) {
    if (n > num_vars_) num_vars_ = n;
  }

  /// Allocates one fresh variable and returns it.
  Var EmitVar() {
    const Var v = num_vars_;
    EnsureVars(num_vars_ + 1);
    return v;
  }

  /// Capacity hint: about `n` more clauses are coming. Sinks that own
  /// growable storage reserve it here; everyone else ignores the hint.
  virtual void ReserveClauses(std::uint64_t n) { (void)n; }

  /// Emits one clause. `lits` is borrowed only for the duration of the call.
  void EmitClause(const Lit* lits, std::size_t n) {
    ++num_clauses_;
    num_literals_ += n;
    DoEmit(lits, n);
  }
  void EmitClause(const Clause& clause) {
    EmitClause(clause.data(), clause.size());
  }

  /// Small-clause fast paths (routing CNFs are dominated by 1-3 literal
  /// clauses); no heap traffic on the caller side.
  void EmitUnit(Lit a) { EmitClause(&a, 1); }
  void EmitBinary(Lit a, Lit b) {
    const Lit lits[2] = {a, b};
    EmitClause(lits, 2);
  }
  void EmitTernary(Lit a, Lit b, Lit c) {
    const Lit lits[3] = {a, b, c};
    EmitClause(lits, 3);
  }

  /// Flushes buffered state. Call exactly once, after the last emission.
  /// False signals trivial unsatisfiability or an I/O failure.
  virtual bool Finish() { return true; }

  int num_vars() const { return num_vars_; }
  /// Clauses / literals emitted into this sink.
  std::uint64_t num_clauses() const { return num_clauses_; }
  std::uint64_t num_literals() const { return num_literals_; }

 protected:
  /// Sink-specific clause handling; counters are already updated.
  virtual void DoEmit(const Lit* lits, std::size_t n) = 0;

  int num_vars_ = 0;
  std::uint64_t num_clauses_ = 0;
  std::uint64_t num_literals_ = 0;
};

/// Collects the stream into a Cnf — the full back-compat sink. Emitting the
/// same stream through this sink reproduces the pre-sink encoder output
/// byte for byte (clause order, literal order, Table 1 counts).
class CnfCollectorSink final : public ClauseSink {
 public:
  explicit CnfCollectorSink(Cnf& cnf) : cnf_(cnf) {
    num_vars_ = cnf.num_vars();
  }

  void EnsureVars(int n) override {
    ClauseSink::EnsureVars(n);
    cnf_.EnsureVars(n);
  }
  void ReserveClauses(std::uint64_t n) override {
    cnf_.ReserveClauses(cnf_.num_clauses() + static_cast<std::size_t>(n));
  }

 protected:
  void DoEmit(const Lit* lits, std::size_t n) override {
    cnf_.AddClause(Clause(lits, lits + n));
  }

 private:
  Cnf& cnf_;
};

/// Feeds the stream straight into a Solver: clauses go from the encoder's
/// scratch buffer into the solver's arena/binary layer with no intermediate
/// materialization. ReserveClauses reaches the solver's binary load buffer;
/// Finish() ends the solver's load phase (Solver::FinishLoad) and is false
/// once the solver refuted the formula.
class SolverSink final : public ClauseSink {
 public:
  explicit SolverSink(Solver& solver);

  void EnsureVars(int n) override;
  void ReserveClauses(std::uint64_t n) override;
  bool Finish() override;

  /// False once any emitted clause made the formula unsatisfiable.
  bool okay() const { return ok_; }

 protected:
  void DoEmit(const Lit* lits, std::size_t n) override;

 private:
  Solver& solver_;
  bool ok_ = true;
};

/// Streams DIMACS text to `out`, back-patching the "p cnf V C" header on
/// Finish() so huge instances never reside in memory. The stream must be
/// seekable (a file or stringstream); Finish() returns false otherwise.
class StreamingDimacsSink final : public ClauseSink {
 public:
  /// `comments` are emitted first, one "c ..." line each (pass them without
  /// the leading "c ").
  explicit StreamingDimacsSink(std::ostream& out,
                               const std::vector<std::string>& comments = {});

  bool Finish() override;

 protected:
  void DoEmit(const Lit* lits, std::size_t n) override;

 private:
  void FlushBuffer();

  std::ostream& out_;
  std::streamoff header_pos_ = -1;
  std::string buffer_;
  bool finished_ = false;
};

/// Counts without storing: clauses, literals, and the clause-length
/// histogram — the allocation-free backend for size statistics and the
/// Table 1 benches.
class CountingSink final : public ClauseSink {
 public:
  /// Entry [k] counts clauses of length k (one entry past the longest).
  const std::vector<std::uint64_t>& histogram() const { return histogram_; }

  std::uint64_t NumClausesOfSize(std::size_t length) const {
    return length < histogram_.size() ? histogram_[length] : 0;
  }

 protected:
  void DoEmit(const Lit* lits, std::size_t n) override {
    (void)lits;
    if (n >= histogram_.size()) histogram_.resize(n + 1, 0);
    ++histogram_[n];
  }

 private:
  std::vector<std::uint64_t> histogram_;
};

/// Duplicates the stream into two downstream sinks — e.g. a SolverSink plus
/// a CnfCollectorSink when a resident solver's input must also stay
/// auditable (flow::RoutingSession's audit mode feeds the satlint
/// net-group-hygiene pass this way). Finish() runs both downstreams and is
/// false if either is.
class TeeSink final : public ClauseSink {
 public:
  TeeSink(ClauseSink& a, ClauseSink& b) : a_(a), b_(b) {
    num_vars_ = a.num_vars() > b.num_vars() ? a.num_vars() : b.num_vars();
  }

  void EnsureVars(int n) override {
    ClauseSink::EnsureVars(n);
    a_.EnsureVars(n);
    b_.EnsureVars(n);
  }
  void ReserveClauses(std::uint64_t n) override {
    a_.ReserveClauses(n);
    b_.ReserveClauses(n);
  }
  bool Finish() override {
    const bool a_ok = a_.Finish();
    const bool b_ok = b_.Finish();
    return a_ok && b_ok;
  }

 protected:
  void DoEmit(const Lit* lits, std::size_t n) override {
    a_.EmitClause(lits, n);
    b_.EmitClause(lits, n);
  }

 private:
  ClauseSink& a_;
  ClauseSink& b_;
};

}  // namespace satfr::sat
