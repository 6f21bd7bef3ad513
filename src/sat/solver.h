// A conflict-driven clause-learning (CDCL) SAT solver.
//
// This is the substrate that stands in for the siege_v4 and MiniSat binaries
// used in the paper (see DESIGN.md §3). The engine implements the standard
// modern architecture: two-watched-literal propagation with blocking
// literals, first-UIP conflict analysis with clause minimization, VSIDS
// variable activities with phase saving, Luby or geometric restarts, a
// tiered (core / tier2 / local) learnt-clause database with LBD-driven
// deletion, arena garbage collection in watch-traversal order, and
// restart-boundary inprocessing (on-trail strengthening + clause
// vivification). DESIGN.md §10 documents the hot-path layout decisions.
//
// Binary clauses get a dedicated implication layer: routing CNFs are
// dominated by 2-literal exclusivity clauses (one per conflicting track
// pair), so 2-literal clauses never enter the arena. Instead each literal
// keeps a flat list of the literals it implies, consulted before the general
// watch lists in Propagate — a whole binary pass touches no clause memory.
// The lists live in a single CSR-style array (offsets + one flat literal
// buffer) compacted at restart boundaries, with small per-literal overflow
// vectors absorbing learnts between compactions. Binaries added before the
// first search wait in one flat load buffer in emission order, which one
// stable counting sort turns into the CSR (FinishLoad). The reason for a
// binary implication is the packed other literal (see kBinaryReasonBit),
// not a clause reference, and binary learnts are permanent (exempt from
// LBD-driven deletion).
//
// Two option presets mirror the paper's two solvers:
//   SolverOptions::SiegeLike()   — tuned for refutation (UNSAT) throughput,
//   SolverOptions::MiniSatLike() — the classic MiniSat 1.14-era defaults.
//
// Solving is cooperative: a Deadline and/or an std::atomic<bool> stop flag
// (used by the portfolio runner) abort the search with SolveResult::kUnknown.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "mc/shim.h"  // perfbench/corpus.cpp reaches the Atomic alias here
#include "common/stopwatch.h"
#include "sat/cnf.h"
#include "sat/types.h"

namespace satfr::sat {

enum class SolveResult { kSat, kUnsat, kUnknown };

const char* ToString(SolveResult result);

struct SolverOptions {
  // VSIDS decay applied after every conflict.
  double var_decay = 0.99;
  // Learnt-clause activity decay.
  double clause_decay = 0.999;
  // Fraction of decisions taken uniformly at random (diversification).
  double random_decision_freq = 0.0;
  // Restart schedule: Luby sequence scaled by restart_base, or geometric
  // with ratio restart_growth starting at restart_base.
  bool luby_restarts = false;
  int restart_base = 100;
  double restart_growth = 1.5;
  // Learnt database: allowed size of the *local* tier starts at
  // learnt_size_factor * #clauses and grows by learnt_size_inc at every
  // reduction. Core and tier2 clauses do not count against the limit.
  double learnt_size_factor = 1.0 / 3.0;
  double learnt_size_inc = 1.15;
  // Seed for random decisions / polarities.
  std::uint64_t seed = 91648253;

  // ---- BCP hot-path & database policy (DESIGN.md §10) ----
  // Consult the cached blocking literal before touching clause memory in
  // Propagate. Off only for ablation benchmarks.
  bool use_blocking_literals = true;
  // Periodic arena compaction in watch-traversal order. A collection runs
  // when at least half the arena (and at least gc_min_arena_words words)
  // is dead. Off only for ablation benchmarks.
  bool gc_enabled = true;
  std::uint32_t gc_min_arena_words = 1u << 16;
  // Tiered learnt database: learnts with LBD <= core_lbd_max are kept
  // forever, LBD <= tier2_lbd_max enter tier2 (demoted to local when they
  // go unused between reductions), the rest are local and aggressively
  // recycled. With use_tiers off every learnt is local (the pre-tier
  // activity/LBD policy).
  bool use_tiers = true;
  std::uint32_t core_lbd_max = 2;
  std::uint32_t tier2_lbd_max = 6;
  // Restart-boundary inprocessing: every vivify_interval-th restart, tier2
  // clauses are vivified (re-derived under unit propagation and shortened
  // when the database already implies a subclause) under a propagation
  // budget. Level-0 strengthening (dropping falsified literals / deleting
  // clauses subsumed by the trail) rides on the same flag.
  bool vivify = true;
  int vivify_interval = 8;
  std::int64_t vivify_propagation_budget = 1 << 14;

  // Run CheckInvariants at every restart boundary and abort on a violation.
  // Debug aid for solver changes; off by default (full scans are O(arena)).
  bool debug_check_invariants = false;

  /// Preset approximating MiniSat's classic behaviour.
  static SolverOptions MiniSatLike();
  /// Preset tuned for UNSAT instances (slower decay, geometric restarts,
  /// a pinch of randomness), approximating siege_v4's profile.
  static SolverOptions SiegeLike();
};

/// The preset named "siege" (SiegeLike) or "minisat" (MiniSatLike);
/// nullopt for any other name.
std::optional<SolverOptions> FindSolverPreset(std::string_view name);

struct SolverStats {
  /// Buckets of the learnt-LBD histogram: bucket i counts learnts whose LBD
  /// was exactly i at learning time; the last bucket clamps everything
  /// above. 18 covers the tiered DB's interesting range (core <= 2,
  /// tier2 <= 6) with room to see the tail.
  static constexpr std::size_t kLbdHistogramSize = 18;

  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t binary_propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned = 0;
  std::uint64_t removed = 0;
  std::uint64_t minimized_literals = 0;
  // Watcher entries examined in Propagate, and how many were dismissed by
  // their blocking literal alone (no clause memory touched). The ratio is
  // the direct measure of what the blocker field buys.
  std::uint64_t watch_inspections = 0;
  std::uint64_t blocker_hits = 0;
  std::uint64_t gc_runs = 0;
  // Tier traffic: promotions move a clause towards core when its recomputed
  // LBD improves; demotions move unused tier2 clauses to local.
  std::uint64_t tier_promotions = 0;
  std::uint64_t tier_demotions = 0;
  // Inprocessing: clauses shortened by vivification, literals they lost,
  // and clauses deleted/strengthened against the level-0 trail.
  std::uint64_t clauses_vivified = 0;
  std::uint64_t lits_removed_vivify = 0;
  std::uint64_t clauses_strengthened = 0;
  // Always 0: solvers share no clauses. The field stays only because
  // perfbench's traced cube_refute arm still reads it; the benchmark change
  // of ROADMAP item 1 removes that last reader, and this field with it.
  std::uint64_t imported_clauses = 0;
  // Activation groups retired with a permanent negative unit (see
  // RetireActivationGroup).
  std::uint64_t retired_groups = 0;
  double solve_seconds = 0.0;
  // LBD distribution of everything learned (one array store per conflict).
  std::uint64_t lbd_histogram[kLbdHistogramSize] = {};
  // Phase-time split of the search: propagation vs. conflict analysis vs.
  // restart-boundary inprocessing (reduce/vivify/rebucket). Only
  // accumulated while a SolverObserver is attached — the timing reads cost
  // two clock queries per propagation pass, so the unobserved hot path
  // never pays them.
  double bcp_seconds = 0.0;
  double analyze_seconds = 0.0;
  double inprocess_seconds = 0.0;

  /// Field-wise delta `*this - baseline` (counters subtract, seconds
  /// subtract). The window primitive behind per-record solver stats and
  /// observer samples.
  SolverStats Since(const SolverStats& baseline) const;

  /// Field-wise sum. Merging per-worker stats (cube pool, portfolio) goes
  /// through this so a new counter is added in exactly one place.
  void Accumulate(const SolverStats& other);

  /// Assignments propagated per second of solving (0 before any solve).
  double PropagationsPerSecond() const {
    return solve_seconds > 0.0
               ? static_cast<double>(propagations) / solve_seconds
               : 0.0;
  }
  /// Fraction of watcher inspections resolved by the blocking literal.
  double BlockerHitRate() const {
    return watch_inspections > 0
               ? static_cast<double>(blocker_hits) /
                     static_cast<double>(watch_inspections)
               : 0.0;
  }
};

/// Learnt-database tier sizes at a quiescent point.
struct LearntTierSizes {
  std::size_t core = 0;
  std::size_t tier2 = 0;
  std::size_t local = 0;
};

/// One restart-boundary telemetry sample. `window` is a stats *delta*
/// covering everything since the previous sample (or since the observer was
/// attached), including the phase-second split; the tier sizes are a
/// point-in-time snapshot.
struct SolverRestartSample {
  std::uint64_t restart_index = 0;  // total restarts so far
  bool final_flush = false;         // emitted at the end of a solve call
  SolverStats window;
  LearntTierSizes tiers;
};

/// Restart-boundary observer hook. The solver calls OnRestartSample at
/// every restart boundary plus once when a solve call returns (the partial
/// window since the last restart, final_flush = true). Attaching an
/// observer also turns on phase timing (see SolverStats::bcp_seconds).
/// Callbacks run on the solving thread; implementations must not mutate
/// the solver, with two sanctioned exceptions: reading const state
/// (stats(), TierSizes()) and calling SetObserver(nullptr) to detach
/// mid-solve. Detaching from a callback takes effect immediately — phase
/// timing stops with the current search pass and no further samples are
/// emitted. Because the solver resets the sample baseline *before*
/// invoking the callback, stats() read inside the callback is a consistent
/// cut: it equals the attach-time baseline plus every window delivered so
/// far (including the one being delivered).
class SolverObserver {
 public:
  virtual ~SolverObserver() = default;
  virtual void OnRestartSample(const SolverRestartSample& sample) = 0;
};

class Solver {
 public:
  explicit Solver(SolverOptions options = SolverOptions());

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Allocates a fresh variable.
  Var NewVar();

  /// Grows the variable count to at least `n` (no-op if already larger),
  /// reserving the per-variable arrays up front — the bulk entry point for
  /// streaming clause emission (sat/clause_sink.h).
  void EnsureVars(int n);

  int num_vars() const { return static_cast<int>(level_.size()); }

  /// Adds a clause (simplified against the level-0 assignment). Returns
  /// false if the formula became trivially unsatisfiable.
  bool AddClause(Clause clause);

  /// Span overload: copies from the caller's buffer into reused internal
  /// scratch — no per-clause allocation. The hot path of SolverSink.
  bool AddClause(const Lit* lits, std::size_t n);

  /// Adds every clause of `cnf`, allocating variables as needed.
  /// Returns false if the formula became trivially unsatisfiable.
  bool AddCnf(const Cnf& cnf);

  /// Capacity hint: about `n` more clauses are coming. Before the first
  /// FinishLoad it reserves the binary load buffer; afterwards a no-op.
  void ReserveClauses(std::uint64_t n);

  /// Ends the load phase: the binaries added so far, which wait in a flat
  /// buffer in emission order, become the frozen CSR of the binary layer
  /// (every implication list in the order the clauses arrived) and the
  /// buffer is released. Later binaries go to the overflow lists. Runs
  /// implicitly before the first unit clause, solve or retirement, so
  /// calling it is only needed to release the buffer early (SolverSink's
  /// Finish does). Idempotent.
  void FinishLoad();

  /// Runs the CDCL search. `deadline` bounds wall-clock time; `stop`, when
  /// non-null, aborts as soon as it becomes true (portfolio cancellation).
  SolveResult Solve(Deadline deadline = Deadline(),
                    const std::atomic<bool>* stop = nullptr);

  /// Incremental interface: solves under the given assumption literals.
  /// kUnsat means "unsatisfiable under these assumptions" — unless okay()
  /// has also become false, the solver remains usable and can be re-queried
  /// with different assumptions while keeping everything it has learned.
  SolveResult SolveWithAssumptions(const std::vector<Lit>& assumptions,
                                   Deadline deadline = Deadline(),
                                   const std::atomic<bool>* stop = nullptr);

  /// Model of the last kSat answer, indexed by variable.
  const std::vector<bool>& model() const { return model_; }

  /// Value of `l` in the last model.
  bool ModelValue(Lit l) const {
    return model_[static_cast<std::size_t>(l.var())] != l.negated();
  }

  const SolverStats& stats() const { return stats_; }

  /// Attaches a restart-boundary telemetry observer (nullptr detaches).
  /// Attach before solving; the sample baseline is the attach-time stats,
  /// so the first sample's window covers exactly what ran afterwards.
  void SetObserver(SolverObserver* observer) {
    observer_ = observer;
    observer_baseline_ = stats_;
  }

  /// Sizes of the learnt tiers (list sizes; exact at restart boundaries
  /// and between solves, approximate while tier tags are dirty mid-search).
  LearntTierSizes TierSizes() const {
    return LearntTierSizes{learnts_core_.size(), learnts_tier2_.size(),
                           learnts_local_.size()};
  }

  /// False once the clause set has been proven unsatisfiable.
  bool okay() const { return ok_; }

  /// Approximate heap footprint of the clause storage in bytes: arena,
  /// binary-implication layer (load buffer, CSR + overflow), and watch lists
  /// (capacities, not sizes). Basis for the collector-vs-direct
  /// peak-memory comparison in the benches.
  std::size_t ClauseMemoryBytes() const;

  /// Full consistency scan over the solver's internal state: per-variable
  /// array sizes, trail/decision-level well-formedness, reason soundness
  /// (the implied literal is true, all others false at earlier-or-equal
  /// levels), binary-layer symmetry (every implication has its mirror and
  /// the entry count, load buffer included, matches num_binary_clauses_;
  /// the load buffer exists only while loading), watch-list <-> arena
  /// agreement (every live clause is watched on exactly its first two
  /// literals, every watcher points at a live clause, and every cached
  /// blocking literal is a literal of its clause — a stale watcher or
  /// blocker after GC relocation fails here), and tier-tag hygiene (a
  /// clause's tier tag is consistent with its stored LBD and with the tier
  /// list holding it). Safe to call at any quiescent point (between
  /// solves, at restart boundaries, from tests). Returns false and fills
  /// `error` on the first violation.
  bool CheckInvariants(std::string* error = nullptr) const;

  /// Attaches a DRUP-style proof log: every clause the solver derives
  /// (learned clauses, strengthened input clauses, vivified clauses, and
  /// the final empty clause on UNSAT) is appended to `log` in derivation
  /// order, so that an UNSAT answer can be re-verified with
  /// VerifyRupRefutation against the original formula. Attach before
  /// adding clauses; pass nullptr to detach. Logging is off by default (it
  /// retains every learned clause).
  void SetProofLog(std::vector<Clause>* log) { proof_log_ = log; }

  /// Declares that every variable from the returned id upward is an
  /// *activation* variable: a selector literal guarding a retractable clause
  /// group (per-net groups), which RetireActivationGroup can retire. `hint`
  /// variables are reserved up front (more may be allocated later via
  /// EnsureVars/NewVar — they are activation variables too). Returns the
  /// first activation variable id; idempotent (later calls return the same
  /// id).
  Var ReserveActivationVars(int hint);

  bool IsActivationVar(Var v) const {
    return activation_begin_ >= 0 && v >= activation_begin_;
  }

  /// Permanently retires the clause group guarded by activation variable
  /// `activation`: adds the unit clause ~activation, so every group clause
  /// (~activation \/ C) is satisfied at level 0 — together with every
  /// learnt that contains ~activation (i.e. whose derivation leaned on the
  /// group under the activation assumption). The call then runs the same
  /// gated level-0 simplification a search runs at its restarts, so retired
  /// groups are reclaimed once enough new top-level facts have accumulated
  /// whether or not the caller ever solves again. Call between solves only.
  /// Returns okay().
  bool RetireActivationGroup(Var activation);

 private:
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoClause = 0xFFFFFFFFu;
  // Sentinel returned by Propagate when the conflicting clause lives in the
  // binary layer (its two literals are in binary_conflict_, not the arena).
  static constexpr ClauseRef kBinaryConflict = 0xFFFFFFFEu;
  // Reasons with this bit set are packed binary reasons: the low 31 bits
  // are the code of the *other* (false) literal of the implying binary
  // clause. Arena references stay below the bit (checked in AllocClause).
  static constexpr ClauseRef kBinaryReasonBit = 0x80000000u;

  static ClauseRef BinaryReason(Lit other) {
    return kBinaryReasonBit | static_cast<ClauseRef>(other.code());
  }
  static bool IsBinaryReason(ClauseRef r) {
    return r != kNoClause && (r & kBinaryReasonBit) != 0;
  }
  static Lit BinaryReasonLit(ClauseRef r) {
    const int code = static_cast<int>(r & ~kBinaryReasonBit);
    return Lit::Make(code >> 1, (code & 1) != 0);
  }

  // Learnt tiers, CaDiCaL-style. The tier tag in the clause header is
  // authoritative; the three cref lists are re-bucketed from the tags at
  // every reduction/restart boundary (RebucketLearnts), so a promotion is
  // a 2-bit header write in the hot path, never a list splice.
  enum Tier : std::uint32_t { kTierCore = 0, kTierTwo = 1, kTierLocal = 2 };

  // Arena clause layout (32-bit words):
  //   word0: size << 6 | used(32) | tier(8|16) | relocated(4) | deleted(2)
  //          | learnt(1)
  //   [relocated only] word1: forwarding reference into the new arena
  //   [learnt only] word1: activity (float bits), word2: LBD
  //   then `size` literal codes.
  struct ClauseView {
    std::uint32_t* header;

    std::uint32_t size() const { return *header >> 6; }
    bool learnt() const { return (*header & 1u) != 0; }
    bool deleted() const { return (*header & 2u) != 0; }
    void MarkDeleted() { *header |= 2u; }
    bool relocated() const { return (*header & 4u) != 0; }
    std::uint32_t tier() const { return (*header >> 3) & 3u; }
    void SetTier(std::uint32_t tier) const {
      *header = (*header & ~(3u << 3)) | (tier << 3);
    }
    bool used() const { return (*header & 32u) != 0; }
    void SetUsed() const { *header |= 32u; }
    void ClearUsed() const { *header &= ~32u; }
    void SetSize(std::uint32_t n) const {
      *header = (*header & 63u) | (n << 6);
    }
    // Forwarding pointer left behind by GC (valid once relocated()).
    std::uint32_t ForwardRef() const { return header[1]; }
    void MarkRelocated(std::uint32_t new_ref) const {
      *header |= 4u;
      header[1] = new_ref;
    }
    Lit* lits() const {
      return reinterpret_cast<Lit*>(header + (learnt() ? 3 : 1));
    }
    Lit& operator[](std::uint32_t i) const { return lits()[i]; }
    float Activity() const;
    void SetActivity(float activity) const;
    std::uint32_t& Lbd() const { return header[2]; }
    std::uint32_t Words() const { return (learnt() ? 3u : 1u) + size(); }
  };

  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  // Max-heap over variable activities.
  // Max-heap over variable activities. Each node carries its sort key next
  // to the variable id, so sifting compares adjacent memory instead of
  // gathering from the activity array (a cache miss per comparison on big
  // heaps). Keys are refreshed from the activity array on Insert/Update
  // and rescaled in place when the activities are (rescaling preserves
  // order, so no re-heapify).
  class VarOrder {
   public:
    explicit VarOrder(const std::vector<double>& activity)
        : activity_(activity) {}
    bool Empty() const { return heap_.empty(); }
    bool Contains(Var v) const;
    void Insert(Var v);
    void Update(Var v);  // activity of v increased
    void RescaleKeys(double factor);
    Var RemoveMax();
    void Grow(int num_vars);

   private:
    struct Node {
      double key;
      Var v;
    };
    static bool Before(const Node& a, const Node& b) { return a.key > b.key; }
    void SiftUp(std::size_t i);
    void SiftDown(std::size_t i);
    const std::vector<double>& activity_;
    std::vector<Node> heap_;
    std::vector<int> position_;  // var -> heap index or -1
  };

  ClauseView View(ClauseRef cref) {
    return ClauseView{arena_.data() + cref};
  }

  // Values are stored per literal code (both polarities written on
  // enqueue) so the propagation loops resolve a literal with a single
  // indexed load; the variable value is the positive literal's entry.
  LBool Value(Var v) const {
    return lit_value_[static_cast<std::size_t>(v) << 1];
  }
  LBool Value(Lit l) const {
    return lit_value_[static_cast<std::size_t>(l.code())];
  }
  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }
  int LevelOf(Var v) const { return level_[static_cast<std::size_t>(v)]; }

  std::uint32_t TierForLbd(std::uint32_t lbd) const {
    if (!options_.use_tiers) return kTierLocal;
    if (lbd <= options_.core_lbd_max) return kTierCore;
    if (lbd <= options_.tier2_lbd_max) return kTierTwo;
    return kTierLocal;
  }
  std::vector<ClauseRef>& TierList(std::uint32_t tier) {
    return tier == kTierCore   ? learnts_core_
           : tier == kTierTwo ? learnts_tier2_
                               : learnts_local_;
  }

  ClauseRef AllocClause(const Lit* lits, std::size_t size, bool learnt);
  void FreeClause(ClauseRef cref);
  void AttachClause(ClauseRef cref);
  void DetachClause(ClauseRef cref);
  void AttachBinary(Lit a, Lit b);
  bool Locked(ClauseRef cref);
  void RemoveClause(ClauseRef cref);
  // Registers a freshly allocated learnt in its tier (tag + list + stats).
  void RegisterLearnt(ClauseRef cref, std::uint32_t lbd);

  void UncheckedEnqueue(Lit p, ClauseRef from);
  void UnassignForBacktrack(Lit p);
  ClauseRef Propagate();
  template <bool UseBlockers>
  ClauseRef PropagateImpl();
  void Analyze(ClauseRef confl, Clause& out_learnt, int& out_btlevel,
               std::uint32_t& out_lbd);
  bool LitRedundant(Lit p, std::uint32_t abstract_levels);
  std::uint32_t AbstractLevel(Var v) const {
    return 1u << (static_cast<std::uint32_t>(LevelOf(v)) & 31u);
  }
  void Backtrack(int level);
  Lit PickBranchLit();
  void NewDecisionLevel() {
    trail_lim_.push_back(static_cast<int>(trail_.size()));
  }

  void BumpVarActivity(Var v);
  void DecayVarActivity() { var_inc_ /= options_.var_decay; }
  void BumpClauseActivity(ClauseView c);
  void DecayClauseActivity() { clause_inc_ /= options_.clause_decay; }
  // Recomputes the LBD of a learnt clause touched by conflict analysis and
  // promotes it towards core when the value improved (tag-only; the list
  // move happens at the next RebucketLearnts).
  void UpdateLearntOnUse(ClauseView c);

  void ReduceDb();
  void RebucketLearnts();
  void RemoveSatisfied(std::vector<ClauseRef>& list);
  // Rebuilds the binary CSR, folding in overflow entries; when
  // drop_satisfied is set (level 0 only), entries of clauses satisfied by
  // the trail are dropped on the way.
  void CompactBinaryLayer(bool drop_satisfied);
  void SimplifyAtLevelZero();
  // Vivifies tier2 clauses under the propagation budget; restart-boundary
  // inprocessing (level 0 only).
  void VivifyRound();
  // Vivifies one clause; returns false if the formula became unsat.
  bool VivifyClause(ClauseRef cref);
  void CollectGarbageIfNeeded();
  void CollectGarbage();
  std::uint32_t ComputeLbd(const Lit* lits, std::size_t size);
  std::uint32_t ComputeLbd(const Clause& lits) {
    return ComputeLbd(lits.data(), lits.size());
  }

  // Returns kTrue (model found), kFalse (UNSAT), or kUndef (restart or
  // budget exhausted; check budget_exhausted_).
  LBool Search(std::int64_t conflict_budget, const Deadline& deadline,
               const std::atomic<bool>* stop);

  static double Luby(double y, int i);

  SolverOptions options_;
  SolverStats stats_;
  Rng rng_;
  bool ok_ = true;

  std::vector<std::uint32_t> arena_;
  std::uint64_t wasted_words_ = 0;
  std::vector<ClauseRef> clauses_;
  // Learnt tiers (DESIGN.md §10): core is permanent, tier2 is demoted on
  // disuse, local is halved at every reduction.
  std::vector<ClauseRef> learnts_core_;
  std::vector<ClauseRef> learnts_tier2_;
  std::vector<ClauseRef> learnts_local_;
  // Set when a promotion happened since the last rebucket, so quiescent
  // points know the tier lists may disagree with the header tags.
  bool tiers_dirty_ = false;

  std::vector<std::vector<Watcher>> watches_;  // indexed by lit code
  // Binary-implication layer, CSR form: the literals implied by literal
  // code c are bin_flat_[bin_offsets_[c] .. bin_offsets_[c+1]) plus the
  // overflow list bin_overflow_[c] (entries added since the last
  // compaction). The implied literal is stored inline, so binary
  // propagation never dereferences the arena; the flat buffer keeps the
  // whole frozen layer contiguous.
  std::vector<std::uint32_t> bin_offsets_;
  std::vector<Lit> bin_flat_;
  std::vector<std::vector<Lit>> bin_overflow_;
  // Dense per-code flag mirroring !bin_overflow_[code].empty(), so the
  // propagation loop skips the scattered vector headers of the (usually
  // empty) overflow lists.
  std::vector<std::uint8_t> bin_overflow_nonempty_;
  std::uint64_t bin_overflow_entries_ = 0;
  // Load phase (until FinishLoad): input binaries are appended here as
  // (a, b) pairs in emission order instead of to the per-literal lists;
  // the frozen range and the overflow lists stay empty meanwhile.
  bool loading_ = true;
  std::vector<Lit> bin_load_;
  std::uint64_t num_binary_clauses_ = 0;
  Lit binary_conflict_[2] = {kUndefLit, kUndefLit};

  std::vector<LBool> lit_value_;  // indexed by lit code, both polarities
  std::vector<std::uint8_t> saved_phase_;  // byte per var: bit ops off the
                                           // backtrack path
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<double> activity_;
  VarOrder order_;

  // Fixed-capacity assignment trail. Capacity is one slot per variable
  // (grown in NewVar/EnsureVars before any search), so the hot-path push
  // is a single store with no growth check, and resize is a plain size
  // write (std::vector::resize would value-initialize the tail, clobbering
  // literals the propagation loop wrote through data()).
  class Trail {
   public:
    void Reserve(std::size_t cap) {
      if (cap <= cap_) return;
      Lit* grown = new Lit[cap];
      for (std::size_t i = 0; i < size_; ++i) grown[i] = data_[i];
      delete[] data_;
      data_ = grown;
      cap_ = cap;
    }
    ~Trail() { delete[] data_; }
    Trail() = default;
    Trail(const Trail&) = delete;
    Trail& operator=(const Trail&) = delete;
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Lit operator[](std::size_t i) const { return data_[i]; }
    Lit* data() { return data_; }
    const Lit* data() const { return data_; }
    const Lit* begin() const { return data_; }
    const Lit* end() const { return data_ + size_; }
    void push_back(Lit l) { data_[size_++] = l; }
    void resize(std::size_t n) { size_ = n; }
    // After writes through data() past size() (the propagation loop keeps
    // the live size in a register), publish the new length.
    void SetSize(std::size_t n) { size_ = n; }

   private:
    Lit* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
  };

  Trail trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;      // next trail index for long-clause watches
  std::size_t qhead_bin_ = 0;  // next trail index for the binary layer

  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  double max_learnts_ = 0.0;
  bool budget_exhausted_ = false;
  std::int64_t simplify_trail_size_ = -1;
  std::size_t vivify_cursor_ = 0;
  std::vector<Clause>* proof_log_ = nullptr;
  std::vector<Lit> assumptions_;
  bool conflict_under_assumptions_ = false;
  // First activation variable (-1 = none declared); see
  // ReserveActivationVars.
  Var activation_begin_ = -1;

  // Emits one observer sample: window = stats_ since the last sample.
  void EmitObserverSample(bool final_flush);

  SolverObserver* observer_ = nullptr;
  SolverStats observer_baseline_;

  // Scratch for the span AddClause (capacity reused across calls).
  Clause add_scratch_;
  // Scratch for VivifyClause (original literals / kept literals).
  Clause vivify_lits_;
  Clause vivify_kept_;

  // Scratch for Analyze.
  std::vector<char> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_toclear_;

  std::vector<bool> model_;
};

}  // namespace satfr::sat
