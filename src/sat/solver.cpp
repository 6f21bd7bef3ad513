#include "sat/solver.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

namespace satfr::sat {

namespace {
// SimplifyAtLevelZero rescans the whole database; only worth it once this
// many new top-level facts have accumulated since the previous scan.
constexpr std::int64_t kSimplifyMinNewFacts = 24;
}  // namespace

SolverStats SolverStats::Since(const SolverStats& baseline) const {
  SolverStats d;
  d.conflicts = conflicts - baseline.conflicts;
  d.decisions = decisions - baseline.decisions;
  d.propagations = propagations - baseline.propagations;
  d.binary_propagations =
      binary_propagations - baseline.binary_propagations;
  d.restarts = restarts - baseline.restarts;
  d.learned = learned - baseline.learned;
  d.removed = removed - baseline.removed;
  d.minimized_literals = minimized_literals - baseline.minimized_literals;
  d.watch_inspections = watch_inspections - baseline.watch_inspections;
  d.blocker_hits = blocker_hits - baseline.blocker_hits;
  d.gc_runs = gc_runs - baseline.gc_runs;
  d.tier_promotions = tier_promotions - baseline.tier_promotions;
  d.tier_demotions = tier_demotions - baseline.tier_demotions;
  d.clauses_vivified = clauses_vivified - baseline.clauses_vivified;
  d.lits_removed_vivify =
      lits_removed_vivify - baseline.lits_removed_vivify;
  d.clauses_strengthened =
      clauses_strengthened - baseline.clauses_strengthened;
  d.retired_groups = retired_groups - baseline.retired_groups;
  d.solve_seconds = solve_seconds - baseline.solve_seconds;
  for (std::size_t i = 0; i < kLbdHistogramSize; ++i) {
    d.lbd_histogram[i] = lbd_histogram[i] - baseline.lbd_histogram[i];
  }
  d.bcp_seconds = bcp_seconds - baseline.bcp_seconds;
  d.analyze_seconds = analyze_seconds - baseline.analyze_seconds;
  d.inprocess_seconds = inprocess_seconds - baseline.inprocess_seconds;
  return d;
}

void SolverStats::Accumulate(const SolverStats& other) {
  conflicts += other.conflicts;
  decisions += other.decisions;
  propagations += other.propagations;
  binary_propagations += other.binary_propagations;
  restarts += other.restarts;
  learned += other.learned;
  removed += other.removed;
  minimized_literals += other.minimized_literals;
  watch_inspections += other.watch_inspections;
  blocker_hits += other.blocker_hits;
  gc_runs += other.gc_runs;
  tier_promotions += other.tier_promotions;
  tier_demotions += other.tier_demotions;
  clauses_vivified += other.clauses_vivified;
  lits_removed_vivify += other.lits_removed_vivify;
  clauses_strengthened += other.clauses_strengthened;
  retired_groups += other.retired_groups;
  // Per-worker wall times overlap, so the merged figure is the pool's
  // aggregate CPU-seconds of solving — the convention MergedStats already
  // established for props/sec readings.
  solve_seconds += other.solve_seconds;
  for (std::size_t i = 0; i < kLbdHistogramSize; ++i) {
    lbd_histogram[i] += other.lbd_histogram[i];
  }
  bcp_seconds += other.bcp_seconds;
  analyze_seconds += other.analyze_seconds;
  inprocess_seconds += other.inprocess_seconds;
}

const char* ToString(SolveResult result) {
  switch (result) {
    case SolveResult::kSat:
      return "SAT";
    case SolveResult::kUnsat:
      return "UNSAT";
    case SolveResult::kUnknown:
      return "UNKNOWN";
  }
  return "?";
}

SolverOptions SolverOptions::MiniSatLike() {
  SolverOptions opts;
  opts.var_decay = 0.95;
  opts.clause_decay = 0.999;
  opts.random_decision_freq = 0.0;
  opts.luby_restarts = true;
  opts.restart_base = 100;
  return opts;
}

SolverOptions SolverOptions::SiegeLike() {
  SolverOptions opts;
  opts.var_decay = 0.99;
  opts.clause_decay = 0.999;
  opts.random_decision_freq = 0.02;
  opts.luby_restarts = false;
  opts.restart_base = 512;
  opts.restart_growth = 1.4;
  opts.learnt_size_factor = 0.5;
  return opts;
}

std::optional<SolverOptions> FindSolverPreset(std::string_view name) {
  if (name == "siege") return SolverOptions::SiegeLike();
  if (name == "minisat") return SolverOptions::MiniSatLike();
  return std::nullopt;
}

float Solver::ClauseView::Activity() const {
  float value;
  std::memcpy(&value, header + 1, sizeof(value));
  return value;
}

void Solver::ClauseView::SetActivity(float activity) const {
  std::memcpy(header + 1, &activity, sizeof(activity));
}

// ---------------------------------------------------------------- VarOrder

bool Solver::VarOrder::Contains(Var v) const {
  return static_cast<std::size_t>(v) < position_.size() &&
         position_[static_cast<std::size_t>(v)] >= 0;
}

void Solver::VarOrder::Grow(int num_vars) {
  position_.resize(static_cast<std::size_t>(num_vars), -1);
}

void Solver::VarOrder::Insert(Var v) {
  if (Contains(v)) return;
  position_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(Node{activity_[static_cast<std::size_t>(v)], v});
  SiftUp(heap_.size() - 1);
}

void Solver::VarOrder::Update(Var v) {
  if (!Contains(v)) return;
  const std::size_t i =
      static_cast<std::size_t>(position_[static_cast<std::size_t>(v)]);
  // Activity only ever increases between rescales, so refreshing the stored
  // key and sifting up restores the heap property.
  heap_[i].key = activity_[static_cast<std::size_t>(v)];
  SiftUp(i);
}

void Solver::VarOrder::RescaleKeys(double factor) {
  for (Node& node : heap_) node.key *= factor;
}

Var Solver::VarOrder::RemoveMax() {
  assert(!heap_.empty());
  const Var top = heap_[0].v;
  heap_[0] = heap_.back();
  position_[static_cast<std::size_t>(heap_[0].v)] = 0;
  heap_.pop_back();
  position_[static_cast<std::size_t>(top)] = -1;
  if (!heap_.empty()) SiftDown(0);
  return top;
}

void Solver::VarOrder::SiftUp(std::size_t i) {
  const Node node = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Before(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    position_[static_cast<std::size_t>(heap_[i].v)] = static_cast<int>(i);
    i = parent;
  }
  heap_[i] = node;
  position_[static_cast<std::size_t>(node.v)] = static_cast<int>(i);
}

void Solver::VarOrder::SiftDown(std::size_t i) {
  const Node node = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], node)) break;
    heap_[i] = heap_[child];
    position_[static_cast<std::size_t>(heap_[i].v)] = static_cast<int>(i);
    i = child;
  }
  heap_[i] = node;
  position_[static_cast<std::size_t>(node.v)] = static_cast<int>(i);
}

// ------------------------------------------------------------------ Solver

Solver::Solver(SolverOptions options)
    : options_(options), rng_(options.seed), order_(activity_) {
  bin_offsets_.push_back(0);
}

Var Solver::NewVar() {
  const Var v = static_cast<Var>(num_vars());
  lit_value_.push_back(LBool::kUndef);
  lit_value_.push_back(LBool::kUndef);
  saved_phase_.push_back(false);  // first decided negative, as in MiniSat
  level_.push_back(0);
  reason_.push_back(kNoClause);
  activity_.push_back(0.0);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  // The two new literal codes start with an empty frozen CSR range at the
  // current end of the flat buffer; learnts land in the overflow lists
  // until the next compaction rebuilds the offsets.
  const auto flat_end = static_cast<std::uint32_t>(bin_flat_.size());
  bin_offsets_.push_back(flat_end);
  bin_offsets_.push_back(flat_end);
  bin_overflow_.emplace_back();
  bin_overflow_.emplace_back();
  bin_overflow_nonempty_.push_back(0);
  bin_overflow_nonempty_.push_back(0);
  // The trail follows the per-variable arrays' (geometric) capacity, so
  // one-at-a-time allocation does not copy it on every call.
  trail_.Reserve(level_.capacity());
  order_.Grow(num_vars());
  order_.Insert(v);
  return v;
}

void Solver::EnsureVars(int n) {
  if (n <= num_vars()) return;
  // The first reservation is exact (a fresh solver learns its size from the
  // encoder); growth past it doubles, so callers that add a few variables
  // at a time (a session's selector per re-route) do not move every
  // per-variable array on each call.
  std::size_t count = static_cast<std::size_t>(n);
  if (count > level_.capacity() && level_.capacity() > 0) {
    count = std::max(count, 2 * level_.capacity());
  }
  lit_value_.reserve(2 * count);
  saved_phase_.reserve(count);
  level_.reserve(count);
  reason_.reserve(count);
  activity_.reserve(count);
  seen_.reserve(count);
  watches_.reserve(2 * count);
  bin_offsets_.reserve(2 * count + 1);
  bin_overflow_.reserve(2 * count);
  bin_overflow_nonempty_.reserve(2 * count);
  trail_.Reserve(count);
  while (num_vars() < n) NewVar();
}

Var Solver::ReserveActivationVars(int hint) {
  if (activation_begin_ < 0) activation_begin_ = num_vars();
  if (hint > 0) EnsureVars(activation_begin_ + hint);
  return activation_begin_;
}

bool Solver::RetireActivationGroup(Var activation) {
  assert(IsActivationVar(activation));
  assert(DecisionLevel() == 0);
  if (!ok_) return false;
  const Lit off = Lit::Neg(activation);
  if (Value(off) == LBool::kTrue) return true;  // already retired
  if (!AddClause(&off, 1)) return false;
  ++stats_.retired_groups;
  // Reclaim here rather than at the next search: a caller that applies
  // many deltas between solves (or answers without solving) would
  // otherwise keep every retired group resident until it searches.
  SimplifyAtLevelZero();
  return ok_;
}

Solver::ClauseRef Solver::AllocClause(const Lit* lits, std::size_t size,
                                      bool learnt) {
  const std::uint32_t extra = learnt ? 3u : 1u;
  const ClauseRef cref = static_cast<ClauseRef>(arena_.size());
  assert(cref < kBinaryReasonBit && "arena exceeds the reason tag space");
  arena_.resize(arena_.size() + extra + size);
  ClauseView c = View(cref);
  *c.header = (static_cast<std::uint32_t>(size) << 6) | (learnt ? 1u : 0u);
  if (learnt) {
    c.SetActivity(0.0f);
    c.Lbd() = static_cast<std::uint32_t>(size);
  }
  std::copy(lits, lits + size, c.lits());
  return cref;
}

void Solver::FreeClause(ClauseRef cref) {
  ClauseView c = View(cref);
  wasted_words_ += c.Words();
  c.MarkDeleted();
}

void Solver::AttachClause(ClauseRef cref) {
  ClauseView c = View(cref);
  assert(c.size() >= 3);
  watches_[static_cast<std::size_t>((~c[0]).code())].push_back(
      Watcher{cref, c[1]});
  watches_[static_cast<std::size_t>((~c[1]).code())].push_back(
      Watcher{cref, c[0]});
}

void Solver::DetachClause(ClauseRef cref) {
  ClauseView c = View(cref);
  for (int w = 0; w < 2; ++w) {
    auto& list = watches_[static_cast<std::size_t>((~c[w]).code())];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].cref == cref) {
        list[i] = list.back();
        list.pop_back();
        break;
      }
    }
  }
}

void Solver::AttachBinary(Lit a, Lit b) {
  assert(!loading_ && "input binaries go to the load buffer until FinishLoad");
  const auto code_a = static_cast<std::size_t>((~a).code());
  const auto code_b = static_cast<std::size_t>((~b).code());
  bin_overflow_[code_a].push_back(b);
  bin_overflow_[code_b].push_back(a);
  bin_overflow_nonempty_[code_a] = 1;
  bin_overflow_nonempty_[code_b] = 1;
  bin_overflow_entries_ += 2;
  ++num_binary_clauses_;
}

bool Solver::Locked(ClauseRef cref) {
  ClauseView c = View(cref);
  const Var v = c[0].var();
  return Value(c[0]) == LBool::kTrue &&
         reason_[static_cast<std::size_t>(v)] == cref;
}

void Solver::RemoveClause(ClauseRef cref) {
  DetachClause(cref);
  if (Locked(cref)) {
    ClauseView c = View(cref);
    reason_[static_cast<std::size_t>(c[0].var())] = kNoClause;
  }
  FreeClause(cref);
}

void Solver::RegisterLearnt(ClauseRef cref, std::uint32_t lbd) {
  ClauseView c = View(cref);
  c.Lbd() = lbd;
  const std::uint32_t tier = TierForLbd(lbd);
  c.SetTier(tier);
  // Fresh clauses count as used so they survive their first demotion round.
  c.SetUsed();
  TierList(tier).push_back(cref);
}

bool Solver::AddClause(Clause clause) {
  return AddClause(clause.data(), clause.size());
}

bool Solver::AddClause(const Lit* lits, std::size_t n) {
  assert(DecisionLevel() == 0);
  if (!ok_) return false;
  for (std::size_t i = 0; i < n; ++i) {
    assert(lits[i].IsValid() && lits[i].var() < num_vars());
  }
  // Sort, so duplicates and tautologies sit side by side. 2- and 3-literal
  // clauses, nearly all of a routing CNF, sort in a local array; longer
  // ones go through the scratch buffer, whose capacity is reused across
  // calls, so streaming emission (SolverSink) adds clauses without heap
  // traffic.
  Lit small[3];
  Lit* buf = small;
  if (n <= 3) {
    std::copy(lits, lits + n, small);
    if (n >= 2 && small[1] < small[0]) std::swap(small[0], small[1]);
    if (n == 3) {
      if (small[2] < small[1]) std::swap(small[1], small[2]);
      if (small[1] < small[0]) std::swap(small[0], small[1]);
    }
  } else {
    add_scratch_.assign(lits, lits + n);
    std::sort(add_scratch_.begin(), add_scratch_.end());
    buf = add_scratch_.data();
  }
  // Simplify in place against the level-0 assignment; drop duplicates and
  // tautologies.
  std::size_t out = 0;
  Lit previous = kUndefLit;
  for (std::size_t i = 0; i < n; ++i) {
    const Lit l = buf[i];
    const LBool value = Value(l);
    if (value == LBool::kTrue || l == ~previous) return true;  // satisfied
    if (value != LBool::kFalse && l != previous) {
      buf[out++] = l;
      previous = l;
    }
  }
  // Strengthened clauses are RUP consequences of the database; log them so
  // the proof checker sees exactly what the solver will propagate on.
  if (proof_log_ && out < n) {
    proof_log_->emplace_back(buf, buf + out);
  }
  if (out == 0) {
    ok_ = false;
    return false;
  }
  if (out == 1) {
    // A unit propagates over every binary loaded so far, so the load
    // buffer becomes the frozen CSR first.
    FinishLoad();
    UncheckedEnqueue(buf[0], kNoClause);
    ok_ = (Propagate() == kNoClause);
    if (!ok_ && proof_log_) proof_log_->push_back(Clause{});
    return ok_;
  }
  if (out == 2) {
    if (loading_) {
      bin_load_.push_back(buf[0]);
      bin_load_.push_back(buf[1]);
      ++num_binary_clauses_;
    } else {
      AttachBinary(buf[0], buf[1]);
    }
    return true;
  }
  const ClauseRef cref = AllocClause(buf, out, /*learnt=*/false);
  clauses_.push_back(cref);
  AttachClause(cref);
  return true;
}

void Solver::ReserveClauses(std::uint64_t n) {
  // Every clause of the hint could be a binary; capacity the stream never
  // writes costs address space only, and FinishLoad releases it.
  if (loading_) bin_load_.reserve(bin_load_.size() + 2 * n);
}

void Solver::FinishLoad() {
  if (!loading_) return;
  loading_ = false;
  // Nothing reaches the frozen range or the overflow lists while loading
  // (every offset is still 0), so the CSR is built from the buffer alone:
  // binary (a \/ b) puts b in list ~a and a in list ~b. One stable
  // counting sort: count each list, turn the counts into list ends, then
  // place from the back of the buffer to the front, so every list keeps
  // emission order — the order the per-literal lists had when each binary
  // was appended on arrival.
  assert(bin_flat_.empty() && bin_overflow_entries_ == 0);
  const std::size_t num_codes = 2 * static_cast<std::size_t>(num_vars());
  for (const Lit l : bin_load_) {
    ++bin_offsets_[static_cast<std::size_t>((~l).code())];
  }
  std::uint32_t end = 0;
  for (std::size_t code = 0; code < num_codes; ++code) {
    end += bin_offsets_[code];
    bin_offsets_[code] = end;
  }
  bin_offsets_[num_codes] = end;
  bin_flat_.resize(bin_load_.size());
  for (std::size_t i = bin_load_.size(); i > 0; i -= 2) {
    const Lit a = bin_load_[i - 2];
    const Lit b = bin_load_[i - 1];
    bin_flat_[--bin_offsets_[static_cast<std::size_t>((~a).code())]] = b;
    bin_flat_[--bin_offsets_[static_cast<std::size_t>((~b).code())]] = a;
  }
  bin_load_ = std::vector<Lit>();
}

bool Solver::AddCnf(const Cnf& cnf) {
  EnsureVars(cnf.num_vars());
  for (const Clause& clause : cnf.clauses()) {
    if (!AddClause(clause)) return false;
  }
  return true;
}

std::size_t Solver::ClauseMemoryBytes() const {
  std::size_t bytes = arena_.capacity() * sizeof(std::uint32_t);
  bytes += bin_offsets_.capacity() * sizeof(std::uint32_t);
  bytes += bin_flat_.capacity() * sizeof(Lit);
  bytes += bin_load_.capacity() * sizeof(Lit);
  for (const auto& list : bin_overflow_) {
    bytes += list.capacity() * sizeof(Lit);
  }
  for (const auto& list : watches_) {
    bytes += list.capacity() * sizeof(Watcher);
  }
  return bytes;
}

void Solver::UncheckedEnqueue(Lit p, ClauseRef from) {
  const std::size_t v = static_cast<std::size_t>(p.var());
  assert(Value(p.var()) == LBool::kUndef);
  lit_value_[static_cast<std::size_t>(p.code())] = LBool::kTrue;
  lit_value_[static_cast<std::size_t>((~p).code())] = LBool::kFalse;
  level_[v] = DecisionLevel();
  reason_[v] = from;
  trail_.push_back(p);
}

void Solver::UnassignForBacktrack(Lit p) {
  const std::size_t v = static_cast<std::size_t>(p.var());
  lit_value_[static_cast<std::size_t>(p.code())] = LBool::kUndef;
  lit_value_[static_cast<std::size_t>((~p).code())] = LBool::kUndef;
  saved_phase_[v] = !p.negated();
  if (!order_.Contains(p.var())) order_.Insert(p.var());
}

Solver::ClauseRef Solver::Propagate() {
  assert(!loading_ && "binaries still in the load buffer");
  // The blocker toggle is hoisted to a template parameter so the default
  // path carries no per-watcher branch for it.
  return options_.use_blocking_literals ? PropagateImpl<true>()
                                        : PropagateImpl<false>();
}

template <bool UseBlockers>
Solver::ClauseRef Solver::PropagateImpl() {
  ClauseRef conflict = kNoClause;
  // Counter deltas stay in registers during the loop and are flushed once
  // at the end — the stats struct is not touched per watcher or literal.
  std::uint64_t inspected = 0;
  std::uint64_t blocked = 0;
  std::uint64_t propagated = 0;
  std::uint64_t binary_propagated = 0;
  LBool* const lit_value = lit_value_.data();
  // The queue heads, trail cursor, and trail length all live in locals for
  // the duration of the loop: enqueueing inline through raw pointers means
  // no member store forces them back to memory, and the decision level is
  // constant for the whole call.
  Lit* const trail = trail_.data();
  std::size_t tsz = trail_.size();
  std::size_t head = qhead_;
  std::size_t bin_head = qhead_bin_;
  const int dl = DecisionLevel();
  // The containers themselves are stable for the whole call (only the
  // overflow lists and foreign watch lists grow, and never through these
  // pointers), so hoist the data pointers the compiler cannot prove
  // loop-invariant across the enqueue stores.
  const Lit* const bin_flat = bin_flat_.data();
  const std::uint32_t* const bin_offsets = bin_offsets_.data();
  const std::uint8_t* const overflow_nonempty = bin_overflow_nonempty_.data();
  const std::vector<Lit>* const bin_overflow = bin_overflow_.data();
  std::vector<Watcher>* const watches = watches_.data();
  const auto enqueue = [&](Lit q, ClauseRef from) {
    assert(lit_value[q.code()] == LBool::kUndef);
    const std::size_t v = static_cast<std::size_t>(q.var());
    lit_value[q.code()] = LBool::kTrue;
    lit_value[q.code() ^ 1] = LBool::kFalse;
    level_[v] = dl;
    reason_[v] = from;
    trail[tsz++] = q;
  };
  while (head < tsz) {
    // Binary fast path, drained to fixpoint before any long clause is
    // touched: the implied literal is stored inline (frozen CSR range plus
    // the overflow list of learnts added since the last compaction), so
    // the whole pass dereferences no clause memory and never edits a watch
    // list, and a conflict reachable through binaries alone skips the long
    // scans of every literal enqueued along the way.
    while (bin_head < tsz) {
      const Lit bp = trail[bin_head++];
      ++propagated;
      const std::size_t code = static_cast<std::size_t>(bp.code());
      // The frozen range is the common case; the overflow list is only
      // consulted when the cheap dense flag says it is non-empty (the
      // vector header itself would be a scattered cache line per literal).
      const Lit* it = bin_flat + bin_offsets[code];
      const Lit* end = bin_flat + bin_offsets[code + 1];
      const Lit* overflow_it = nullptr;
      const Lit* overflow_end = nullptr;
      if (overflow_nonempty[code] != 0) {
        overflow_it = bin_overflow[code].data();
        overflow_end = overflow_it + bin_overflow[code].size();
      }
      for (;;) {
        if (it == end) {
          if (overflow_it == overflow_end) break;
          it = overflow_it;
          end = overflow_end;
          overflow_it = overflow_end = nullptr;
          continue;
        }
        const Lit q = *it++;
        const LBool value = lit_value[q.code()];
        if (value == LBool::kTrue) continue;
        if (value == LBool::kFalse) {
          binary_conflict_[0] = q;
          binary_conflict_[1] = ~bp;
          bin_head = head = tsz;
          conflict = kBinaryConflict;
          break;
        }
        ++binary_propagated;
        enqueue(q, BinaryReason(~bp));
      }
      if (conflict != kNoClause) {
        goto done;
      }
    }
    // Every literal passes through the binary queue first, so the
    // propagation counter above has already seen p.
    const Lit p = trail[head++];
    auto& watch_list = watches[static_cast<std::size_t>(p.code())];
    // Pointer-based sweep: moving a watch appends to a *different* list
    // (the new watched literal can never share p's code), so this list
    // never reallocates mid-scan and the compiler needs no size reloads.
    Watcher* const begin = watch_list.data();
    Watcher* const end = begin + watch_list.size();
    Watcher* out = begin;
    const Lit false_lit = ~p;
    for (Watcher* in = begin; in != end; ++in) {
      const Watcher w = *in;
      if (in + 1 != end) {
        __builtin_prefetch(arena_.data() + (in + 1)->cref);
      }
      ++inspected;
      if (UseBlockers && lit_value[w.blocker.code()] == LBool::kTrue) {
        ++blocked;
        *out++ = w;
        continue;
      }
      ClauseView c = View(w.cref);
      if (c[0] == false_lit) {
        c[0] = c[1];
        c[1] = false_lit;
      }
      assert(c[1] == false_lit);
      const Lit first = c[0];
      // With blockers on, first == w.blocker was already tested upfront;
      // with them off the test must not be short-circuited away.
      if ((!UseBlockers || first != w.blocker) &&
          lit_value[first.code()] == LBool::kTrue) {
        *out++ = Watcher{w.cref, first};
        continue;
      }
      // Look for a new literal to watch.
      bool found = false;
      const std::uint32_t size = c.size();
      for (std::uint32_t k = 2; k < size; ++k) {
        if (lit_value[c[k].code()] != LBool::kFalse) {
          c[1] = c[k];
          c[k] = false_lit;
          watches[static_cast<std::size_t>((~c[1]).code())].push_back(
              Watcher{w.cref, first});
          found = true;
          break;
        }
      }
      if (found) continue;
      // Clause is unit or conflicting.
      *out++ = Watcher{w.cref, first};
      if (lit_value[first.code()] == LBool::kFalse) {
        conflict = w.cref;
        bin_head = head = tsz;
        for (++in; in != end; ++in) {
          *out++ = *in;
        }
        break;
      }
      enqueue(first, w.cref);
    }
    watch_list.resize(static_cast<std::size_t>(out - begin));
    if (conflict != kNoClause) break;
  }
done:
  trail_.SetSize(tsz);
  qhead_ = head;
  qhead_bin_ = bin_head;
  stats_.propagations += propagated;
  stats_.binary_propagations += binary_propagated;
  stats_.watch_inspections += inspected;
  stats_.blocker_hits += blocked;
  return conflict;
}

void Solver::BumpVarActivity(Var v) {
  if ((activity_[static_cast<std::size_t>(v)] += var_inc_) > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
    order_.RescaleKeys(1e-100);
  }
  order_.Update(v);
}

void Solver::BumpClauseActivity(ClauseView c) {
  const float bumped = c.Activity() + static_cast<float>(clause_inc_);
  c.SetActivity(bumped);
  if (bumped > 1e20f) {
    for (const std::vector<ClauseRef>* list :
         {&learnts_core_, &learnts_tier2_, &learnts_local_}) {
      for (const ClauseRef cref : *list) {
        ClauseView lc = View(cref);
        if (!lc.deleted()) lc.SetActivity(lc.Activity() * 1e-20f);
      }
    }
    clause_inc_ *= 1e-20;
  }
}

void Solver::UpdateLearntOnUse(ClauseView c) {
  // Glucose-style dynamic LBD: a clause that participates in conflict
  // analysis gets its LBD recomputed from the current levels; if the value
  // improved, retag towards core (the list move is deferred to the next
  // RebucketLearnts — the tag in the header is authoritative).
  // One recompute per clause per reduction round: the used bit doubles as
  // the "already refreshed" mark and ReduceDb clears it, so hot reasons do
  // not pay an O(size) level walk on every single conflict they feed.
  const bool first_use = !c.used();
  c.SetUsed();
  if (!options_.use_tiers || !first_use) return;
  // Core clauses cannot improve further and dominate the reason mix on
  // structured instances — skip the recompute for them.
  if (c.Lbd() <= options_.core_lbd_max) return;
  const std::uint32_t lbd = ComputeLbd(c.lits(), c.size());
  if (lbd >= c.Lbd()) return;
  c.Lbd() = lbd;
  const std::uint32_t tier = TierForLbd(lbd);
  if (tier < c.tier()) {
    c.SetTier(tier);
    ++stats_.tier_promotions;
    tiers_dirty_ = true;
  }
}

void Solver::Analyze(ClauseRef confl, Clause& out_learnt, int& out_btlevel,
                     std::uint32_t& out_lbd) {
  int path_count = 0;
  Lit p = kUndefLit;
  out_learnt.clear();
  out_learnt.push_back(kUndefLit);  // placeholder for the asserting literal
  int index = static_cast<int>(trail_.size()) - 1;

  do {
    assert(confl != kNoClause);
    // Fetch the literals of the conflict/reason. Binary reasons are packed
    // literals (the implied literal is p itself); the binary conflict's two
    // literals live in binary_conflict_. Neither touches the arena.
    Lit bin_lits[2];
    const Lit* lits;
    std::uint32_t size;
    if (confl == kBinaryConflict) {
      bin_lits[0] = binary_conflict_[0];
      bin_lits[1] = binary_conflict_[1];
      lits = bin_lits;
      size = 2;
    } else if (IsBinaryReason(confl)) {
      bin_lits[0] = p;
      bin_lits[1] = BinaryReasonLit(confl);
      lits = bin_lits;
      size = 2;
    } else {
      ClauseView c = View(confl);
      if (c.learnt()) {
        BumpClauseActivity(c);
        UpdateLearntOnUse(c);
      }
      lits = c.lits();
      size = c.size();
    }
    for (std::uint32_t j = (p == kUndefLit) ? 0 : 1; j < size; ++j) {
      const Lit q = lits[j];
      const std::size_t v = static_cast<std::size_t>(q.var());
      if (!seen_[v] && LevelOf(q.var()) > 0) {
        BumpVarActivity(q.var());
        seen_[v] = 1;
        if (LevelOf(q.var()) >= DecisionLevel()) {
          ++path_count;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    // Select the next implication to expand.
    while (!seen_[static_cast<std::size_t>(trail_[static_cast<std::size_t>(
        index--)].var())]) {
    }
    p = trail_[static_cast<std::size_t>(index + 1)];
    confl = reason_[static_cast<std::size_t>(p.var())];
    seen_[static_cast<std::size_t>(p.var())] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Conflict-clause minimization: drop literals implied by the rest.
  analyze_toclear_ = out_learnt;
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    abstract_levels |= AbstractLevel(out_learnt[i].var());
  }
  std::size_t kept = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    const Lit l = out_learnt[i];
    if (reason_[static_cast<std::size_t>(l.var())] == kNoClause ||
        !LitRedundant(l, abstract_levels)) {
      out_learnt[kept++] = l;
    }
  }
  stats_.minimized_literals += out_learnt.size() - kept;
  out_learnt.resize(kept);

  // Find the backtrack level (highest level below the current one).
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (LevelOf(out_learnt[i].var()) > LevelOf(out_learnt[max_i].var())) {
        max_i = i;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = LevelOf(out_learnt[1].var());
  }

  out_lbd = ComputeLbd(out_learnt);

  for (const Lit l : analyze_toclear_) {
    seen_[static_cast<std::size_t>(l.var())] = 0;
  }
}

bool Solver::LitRedundant(Lit p, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(p);
  const std::size_t top = analyze_toclear_.size();
  while (!analyze_stack_.empty()) {
    const Lit l = analyze_stack_.back();
    analyze_stack_.pop_back();
    const ClauseRef cref = reason_[static_cast<std::size_t>(l.var())];
    assert(cref != kNoClause);
    // The literals of the reason besides the implied one.
    Lit bin_other;
    const Lit* others;
    std::uint32_t count;
    if (IsBinaryReason(cref)) {
      bin_other = BinaryReasonLit(cref);
      others = &bin_other;
      count = 1;
    } else {
      ClauseView c = View(cref);
      others = c.lits() + 1;
      count = c.size() - 1;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const Lit q = others[i];
      const std::size_t v = static_cast<std::size_t>(q.var());
      if (!seen_[v] && LevelOf(q.var()) > 0) {
        if (reason_[v] != kNoClause &&
            (AbstractLevel(q.var()) & abstract_levels) != 0) {
          seen_[v] = 1;
          analyze_stack_.push_back(q);
          analyze_toclear_.push_back(q);
        } else {
          for (std::size_t j = top; j < analyze_toclear_.size(); ++j) {
            seen_[static_cast<std::size_t>(analyze_toclear_[j].var())] = 0;
          }
          analyze_toclear_.resize(top);
          return false;
        }
      }
    }
  }
  return true;
}

std::uint32_t Solver::ComputeLbd(const Lit* lits, std::size_t size) {
  // Number of distinct decision levels in the clause (Glucose's metric).
  static thread_local std::vector<int> seen_levels;
  std::uint32_t lbd = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const int lvl = LevelOf(lits[i].var());
    if (static_cast<std::size_t>(lvl) >= seen_levels.size()) {
      seen_levels.resize(static_cast<std::size_t>(lvl) + 1, 0);
    }
    if (seen_levels[static_cast<std::size_t>(lvl)] == 0) {
      seen_levels[static_cast<std::size_t>(lvl)] = 1;
      ++lbd;
    }
  }
  for (std::size_t i = 0; i < size; ++i) {
    seen_levels[static_cast<std::size_t>(LevelOf(lits[i].var()))] = 0;
  }
  return lbd;
}

void Solver::Backtrack(int target_level) {
  if (DecisionLevel() <= target_level) return;
  const int boundary = trail_lim_[static_cast<std::size_t>(target_level)];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= boundary; --i) {
    UnassignForBacktrack(trail_[static_cast<std::size_t>(i)]);
  }
  qhead_ = static_cast<std::size_t>(boundary);
  qhead_bin_ = static_cast<std::size_t>(boundary);
  trail_.resize(static_cast<std::size_t>(boundary));
  trail_lim_.resize(static_cast<std::size_t>(target_level));
}

Lit Solver::PickBranchLit() {
  // Occasional random decision for diversification.
  if (options_.random_decision_freq > 0.0 &&
      rng_.NextBool(options_.random_decision_freq) && !order_.Empty()) {
    const Var v = static_cast<Var>(rng_.NextBelow(
        static_cast<std::uint64_t>(num_vars())));
    if (Value(v) == LBool::kUndef) {
      return Lit::Make(v, !saved_phase_[static_cast<std::size_t>(v)]);
    }
  }
  while (!order_.Empty()) {
    const Var v = order_.RemoveMax();
    if (Value(v) == LBool::kUndef) {
      return Lit::Make(v, !saved_phase_[static_cast<std::size_t>(v)]);
    }
  }
  return kUndefLit;
}

void Solver::RemoveSatisfied(std::vector<ClauseRef>& list) {
  std::size_t keep = 0;
  for (const ClauseRef cref : list) {
    ClauseView c = View(cref);
    bool satisfied = false;
    std::uint32_t false_lits = 0;
    for (std::uint32_t i = 0; i < c.size(); ++i) {
      const LBool v = Value(c[i]);
      if (v == LBool::kTrue) {
        satisfied = true;
        break;
      }
      false_lits += v == LBool::kFalse;
    }
    if (satisfied) {
      RemoveClause(cref);
      ++stats_.removed;
      continue;
    }
    if (false_lits > 0) {
      // On-trail strengthening: literals false at level 0 can never be
      // satisfied again, so drop them in place. The watched literals
      // (positions 0 and 1) are non-false at a propagation fixpoint, so
      // they survive the compaction in place and the watch lists stay
      // valid; only the cached blockers need refreshing (a dropped
      // literal may be cached there).
      std::uint32_t out = 0;
      for (std::uint32_t i = 0; i < c.size(); ++i) {
        if (Value(c[i]) != LBool::kFalse) c[out++] = c[i];
      }
      assert(out >= 2 && "watched literals must survive L0 strengthening");
      if (proof_log_) {
        proof_log_->emplace_back(c.lits(), c.lits() + out);
      }
      ++stats_.clauses_strengthened;
      if (out == 2) {
        // Shrunk to a binary: migrate to the implication layer.
        DetachClause(cref);
        AttachBinary(c[0], c[1]);
        FreeClause(cref);
        continue;
      }
      wasted_words_ += c.size() - out;
      c.SetSize(out);
      if (c.learnt()) c.Lbd() = std::min(c.Lbd(), out);
      for (int w = 0; w < 2; ++w) {
        for (Watcher& watcher :
             watches_[static_cast<std::size_t>((~c[w]).code())]) {
          if (watcher.cref == cref) {
            watcher.blocker = c[1 - w];
            break;
          }
        }
      }
    }
    list[keep++] = cref;
  }
  list.resize(keep);
}

void Solver::CompactBinaryLayer(bool drop_satisfied) {
  // Rebuild the CSR from the frozen ranges plus the overflow lists. With
  // drop_satisfied (level 0 only), entries of dead clauses are skipped:
  // the list at code(p) holds the q of every clause (~p \/ q), which is
  // satisfied for good once p is false or q is true; each clause has one
  // entry in each of its two lists and both vanish under the same test.
  assert(!drop_satisfied || DecisionLevel() == 0);
  assert(!loading_);
  const std::size_t num_codes = 2 * static_cast<std::size_t>(num_vars());
  std::vector<Lit> new_flat;
  new_flat.reserve(bin_flat_.size() + bin_overflow_entries_);
  std::vector<std::uint32_t> new_offsets;
  new_offsets.reserve(num_codes + 1);
  new_offsets.push_back(0);
  std::uint64_t removed_entries = 0;
  for (std::size_t code = 0; code < num_codes; ++code) {
    const Lit p = Lit::Make(static_cast<Var>(code >> 1), (code & 1) != 0);
    const bool list_dead = drop_satisfied && Value(p) == LBool::kFalse;
    const Lit* ranges[2][2];
    ranges[0][0] = bin_flat_.data() + bin_offsets_[code];
    ranges[0][1] = bin_flat_.data() + bin_offsets_[code + 1];
    ranges[1][0] = bin_overflow_[code].data();
    ranges[1][1] = ranges[1][0] + bin_overflow_[code].size();
    for (int r = 0; r < 2; ++r) {
      for (const Lit* it = ranges[r][0]; it != ranges[r][1]; ++it) {
        if (list_dead || (drop_satisfied && Value(*it) == LBool::kTrue)) {
          ++removed_entries;
          continue;
        }
        new_flat.push_back(*it);
      }
    }
    bin_overflow_[code].clear();
    bin_overflow_nonempty_[code] = 0;
    new_offsets.push_back(static_cast<std::uint32_t>(new_flat.size()));
  }
  bin_flat_ = std::move(new_flat);
  bin_offsets_ = std::move(new_offsets);
  bin_overflow_entries_ = 0;
  const std::uint64_t removed_clauses = removed_entries / 2;
  num_binary_clauses_ -= removed_clauses;
  stats_.removed += removed_clauses;
}

void Solver::SimplifyAtLevelZero() {
  assert(DecisionLevel() == 0);
  if (!ok_) return;
  // Full database rescans only pay off once enough new top-level facts
  // have accumulated (the first call always runs — it freezes the input
  // binaries into the CSR).
  const auto trail_now = static_cast<std::int64_t>(trail_.size());
  if (simplify_trail_size_ >= 0 &&
      trail_now < simplify_trail_size_ + kSimplifyMinNewFacts) {
    return;
  }
  simplify_trail_size_ = trail_now;
  RebucketLearnts();
  RemoveSatisfied(learnts_core_);
  RemoveSatisfied(learnts_tier2_);
  RemoveSatisfied(learnts_local_);
  RemoveSatisfied(clauses_);
  CompactBinaryLayer(/*drop_satisfied=*/true);
  CollectGarbageIfNeeded();
}

void Solver::RebucketLearnts() {
  if (!tiers_dirty_) return;
  tiers_dirty_ = false;
  // Promotions only flip the header tag in the hot path; here the three
  // lists are rebuilt to match the tags again.
  static thread_local std::vector<ClauseRef> all;
  all.clear();
  for (std::vector<ClauseRef>* list :
       {&learnts_core_, &learnts_tier2_, &learnts_local_}) {
    all.insert(all.end(), list->begin(), list->end());
    list->clear();
  }
  for (const ClauseRef cref : all) {
    ClauseView c = View(cref);
    if (c.deleted()) continue;
    TierList(c.tier()).push_back(cref);
  }
}

void Solver::ReduceDb() {
  RebucketLearnts();
  // Tier2 clauses that went unused since the previous reduction drop to
  // local; the rest get their used bit cleared for the next round. Core
  // clauses are permanent and never scanned.
  if (options_.use_tiers) {
    std::size_t keep = 0;
    for (const ClauseRef cref : learnts_tier2_) {
      ClauseView c = View(cref);
      if (!c.used() && !Locked(cref)) {
        c.SetTier(kTierLocal);
        learnts_local_.push_back(cref);
        ++stats_.tier_demotions;
      } else {
        c.ClearUsed();
        learnts_tier2_[keep++] = cref;
      }
    }
    learnts_tier2_.resize(keep);
  }
  // Order local learnts worst-first: high LBD, then low activity. Binary
  // learnts never reach the arena (they live in the implication layer and
  // are kept forever), so every candidate here has >= 3 literals.
  // Each candidate carries a precomputed sort key — LBD in the high word,
  // inverted activity bits in the low word (non-negative floats compare
  // like their bit patterns) — so ordering never dereferences the arena,
  // and only the worst half needs separating, not a full sort.
  std::vector<std::pair<std::uint64_t, ClauseRef>> candidates;
  candidates.reserve(learnts_local_.size());
  for (const ClauseRef cref : learnts_local_) {
    ClauseView c = View(cref);
    if (c.Lbd() > 2 && !Locked(cref)) {
      const auto act_bits = std::bit_cast<std::uint32_t>(c.Activity());
      const std::uint64_t key = (static_cast<std::uint64_t>(c.Lbd()) << 32) |
                                (0xFFFFFFFFu - act_bits);
      candidates.emplace_back(key, cref);
    }
  }
  const std::size_t to_remove = candidates.size() / 2;
  std::nth_element(candidates.begin(), candidates.begin() + to_remove,
                   candidates.end(),
                   std::greater<std::pair<std::uint64_t, ClauseRef>>());
  for (std::size_t i = 0; i < to_remove; ++i) {
    RemoveClause(candidates[i].second);
    ++stats_.removed;
  }
  // Compact the local list (deleted clauses have their flag set).
  std::size_t keep = 0;
  for (const ClauseRef cref : learnts_local_) {
    if (!View(cref).deleted()) learnts_local_[keep++] = cref;
  }
  learnts_local_.resize(keep);
  max_learnts_ *= options_.learnt_size_inc;
  CollectGarbageIfNeeded();
}

void Solver::CollectGarbageIfNeeded() {
  if (!options_.gc_enabled || arena_.empty() ||
      wasted_words_ * 2 < arena_.size() ||
      arena_.size() < options_.gc_min_arena_words) {
    return;
  }
  CollectGarbage();
}

void Solver::CollectGarbage() {
  ++stats_.gc_runs;
  std::vector<std::uint32_t> new_arena;
  new_arena.reserve(arena_.size() - wasted_words_);
  const auto relocate = [&](ClauseRef old_ref) -> ClauseRef {
    ClauseView c = ClauseView{arena_.data() + old_ref};
    if (c.relocated()) return c.ForwardRef();
    assert(!c.deleted());
    const ClauseRef new_ref = static_cast<ClauseRef>(new_arena.size());
    const std::uint32_t words = c.Words();
    new_arena.insert(new_arena.end(), c.header, c.header + words);
    // Leave a forwarding reference behind; word1 of the stale copy is
    // repurposed (the live literals were copied out above).
    c.MarkRelocated(new_ref);
    return new_ref;
  };
  // Relocate in watch-traversal order: walking the watch lists in literal
  // order lays each clause next to the clauses Propagate will touch right
  // before and after it, so a watch-list scan walks forward through the
  // new arena instead of hopping in allocation order. Watcher entries are
  // redirected in place — blockers survive, nothing is rebuilt.
  for (auto& watch_list : watches_) {
    for (Watcher& w : watch_list) {
      w.cref = relocate(w.cref);
    }
  }
  // Every live clause is watched twice, so the list fix-ups below resolve
  // through the forwarding references left by the traversal above.
  for (std::vector<ClauseRef>* list :
       {&clauses_, &learnts_core_, &learnts_tier2_, &learnts_local_}) {
    for (ClauseRef& cref : *list) cref = relocate(cref);
  }
  // Remap reasons of currently assigned variables. Binary reasons are
  // packed literals, not arena references — they survive GC untouched.
  for (const Lit p : trail_) {
    ClauseRef& r = reason_[static_cast<std::size_t>(p.var())];
    if (r != kNoClause && !IsBinaryReason(r)) {
      r = relocate(r);
    }
  }
  arena_ = std::move(new_arena);
  wasted_words_ = 0;
}

void Solver::VivifyRound() {
  assert(DecisionLevel() == 0);
  if (!ok_ || !options_.vivify) return;
  RebucketLearnts();
  if (learnts_tier2_.empty()) return;
  // Budgeted pass over tier2 with a rolling cursor: every clause gets its
  // turn across successive rounds even when one round's propagation budget
  // runs out early.
  const std::uint64_t start = stats_.propagations;
  const auto budget =
      static_cast<std::uint64_t>(options_.vivify_propagation_budget);
  std::size_t examined = 0;
  while (examined < learnts_tier2_.size() &&
         stats_.propagations - start < budget) {
    if (vivify_cursor_ >= learnts_tier2_.size()) vivify_cursor_ = 0;
    const ClauseRef cref = learnts_tier2_[vivify_cursor_++];
    ++examined;
    if (View(cref).deleted()) continue;
    if (!VivifyClause(cref)) return;  // refuted the formula
  }
  // Vivified clauses may have left the arena (shrunk to binary/unit) or
  // been dropped as satisfied; compact the list.
  std::size_t keep = 0;
  for (const ClauseRef cref : learnts_tier2_) {
    if (!View(cref).deleted()) learnts_tier2_[keep++] = cref;
  }
  learnts_tier2_.resize(keep);
}

bool Solver::VivifyClause(ClauseRef cref) {
  ClauseView c = View(cref);
  if (Locked(cref)) return true;
  vivify_lits_.assign(c.lits(), c.lits() + c.size());
  // The clause itself must not take part in the propagations below (it
  // could otherwise "derive" its own literals), so detach it first.
  DetachClause(cref);
  vivify_kept_.clear();
  bool satisfied_at_root = false;
  for (const Lit l : vivify_lits_) {
    const LBool value = Value(l);
    if (value == LBool::kTrue) {
      if (LevelOf(l.var()) == 0) {
        // Satisfied at the root: the clause is dead weight either way.
        satisfied_at_root = true;
        break;
      }
      // The assumed negations imply l, so (kept \/ l) subsumes the
      // clause: keep l, drop the remaining tail.
      vivify_kept_.push_back(l);
      break;
    }
    if (value == LBool::kFalse) {
      // The assumed negations (or the root trail) imply ~l: under the
      // negation of (kept \/ tail-without-l), unit propagation falsifies
      // the original clause, so dropping l is a RUP strengthening.
      continue;
    }
    NewDecisionLevel();
    UncheckedEnqueue(~l, kNoClause);
    if (Propagate() != kNoClause) {
      // Conflict under ~kept, ~l: (kept \/ l) is a RUP consequence.
      vivify_kept_.push_back(l);
      break;
    }
    vivify_kept_.push_back(l);
  }
  Backtrack(0);
  if (satisfied_at_root) {
    FreeClause(cref);
    ++stats_.removed;
    return true;
  }
  if (vivify_kept_.size() == vivify_lits_.size()) {
    AttachClause(cref);
    return true;
  }
  ++stats_.clauses_vivified;
  stats_.lits_removed_vivify += vivify_lits_.size() - vivify_kept_.size();
  if (proof_log_) proof_log_->push_back(vivify_kept_);
  if (vivify_kept_.size() >= 3) {
    // Rewrite in place (already detached); the tail words become arena
    // garbage accounted to the GC trigger.
    wasted_words_ += c.size() - vivify_kept_.size();
    c.SetSize(static_cast<std::uint32_t>(vivify_kept_.size()));
    for (std::size_t i = 0; i < vivify_kept_.size(); ++i) {
      c[static_cast<std::uint32_t>(i)] = vivify_kept_[i];
    }
    const std::uint32_t lbd =
        std::min(c.Lbd(), static_cast<std::uint32_t>(vivify_kept_.size()));
    c.Lbd() = lbd;
    AttachClause(cref);
    return true;
  }
  FreeClause(cref);
  if (vivify_kept_.size() == 2) {
    AttachBinary(vivify_kept_[0], vivify_kept_[1]);
    return true;
  }
  if (vivify_kept_.size() == 1) {
    const LBool value = Value(vivify_kept_[0]);
    if (value == LBool::kTrue) return true;
    if (value == LBool::kFalse || !ok_) {
      ok_ = false;
    } else {
      UncheckedEnqueue(vivify_kept_[0], kNoClause);
      ok_ = (Propagate() == kNoClause);
    }
  } else {
    ok_ = false;  // every literal refuted at the root
  }
  if (!ok_ && proof_log_) proof_log_->push_back(Clause{});
  return ok_;
}

double Solver::Luby(double y, int i) {
  // Find the finite subsequence containing index i, and its position.
  int size = 1;
  int seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i = i % size;
  }
  return std::pow(y, seq);
}

LBool Solver::Search(std::int64_t conflict_budget, const Deadline& deadline,
                     const std::atomic<bool>* stop) {
  std::int64_t conflicts_here = 0;
  Clause learnt;
  for (;;) {
    // Phase timing is observer-gated: without one attached, the loop pays
    // a couple of predictable branches per pass and zero clock reads.
    // Re-evaluated every pass (not hoisted) so an observer that detaches
    // itself mid-solve — e.g. from its own OnRestartSample callback —
    // stops the phase clocks immediately instead of at the next restart.
    const bool timed = observer_ != nullptr;
    ClauseRef confl;
    if (timed) {
      Stopwatch bcp_watch;
      confl = Propagate();
      stats_.bcp_seconds += bcp_watch.Seconds();
    } else {
      confl = Propagate();
    }
    if (confl != kNoClause) {
      ++stats_.conflicts;
      ++conflicts_here;
      if (DecisionLevel() == 0) {
        if (proof_log_) proof_log_->push_back(Clause{});
        return LBool::kFalse;
      }
      int backtrack_level = 0;
      std::uint32_t lbd = 0;
      if (timed) {
        Stopwatch analyze_watch;
        Analyze(confl, learnt, backtrack_level, lbd);
        stats_.analyze_seconds += analyze_watch.Seconds();
      } else {
        Analyze(confl, learnt, backtrack_level, lbd);
      }
      if (proof_log_) proof_log_->push_back(learnt);
      Backtrack(backtrack_level);
      if (learnt.size() == 1) {
        UncheckedEnqueue(learnt[0], kNoClause);
      } else if (learnt.size() == 2) {
        // Binary learnts go straight to the implication layer: no arena
        // slot, no activity/LBD bookkeeping, never deleted.
        AttachBinary(learnt[0], learnt[1]);
        UncheckedEnqueue(learnt[0], BinaryReason(learnt[1]));
      } else {
        const ClauseRef cref =
            AllocClause(learnt.data(), learnt.size(), /*learnt=*/true);
        RegisterLearnt(cref, lbd);
        AttachClause(cref);
        BumpClauseActivity(View(cref));
        UncheckedEnqueue(learnt[0], cref);
      }
      ++stats_.learned;
      ++stats_.lbd_histogram[std::min<std::size_t>(
          lbd, SolverStats::kLbdHistogramSize - 1)];
      DecayVarActivity();
      DecayClauseActivity();
      if ((stats_.conflicts & 255u) == 0 &&
          (deadline.Expired() || (stop && stop->load(std::memory_order_relaxed)))) {
        budget_exhausted_ = true;
        return LBool::kUndef;
      }
    } else {
      if (conflicts_here >= conflict_budget) {
        Backtrack(0);
        return LBool::kUndef;  // restart
      }
      if (deadline.Expired() ||
          (stop && stop->load(std::memory_order_relaxed))) {
        budget_exhausted_ = true;
        return LBool::kUndef;
      }
      if (DecisionLevel() == 0) SimplifyAtLevelZero();
      if (static_cast<double>(learnts_local_.size()) -
              static_cast<double>(trail_.size()) >=
          max_learnts_) {
        if (timed) {
          Stopwatch reduce_watch;
          ReduceDb();
          stats_.inprocess_seconds += reduce_watch.Seconds();
        } else {
          ReduceDb();
        }
      }
      // Assert pending assumptions first, one decision level each.
      Lit next = kUndefLit;
      while (DecisionLevel() < static_cast<int>(assumptions_.size())) {
        const Lit p =
            assumptions_[static_cast<std::size_t>(DecisionLevel())];
        if (Value(p) == LBool::kTrue) {
          NewDecisionLevel();  // already satisfied: dummy level
        } else if (Value(p) == LBool::kFalse) {
          conflict_under_assumptions_ = true;
          return LBool::kFalse;
        } else {
          next = p;
          break;
        }
      }
      if (!next.IsValid()) {
        ++stats_.decisions;
        next = PickBranchLit();
        if (!next.IsValid()) return LBool::kTrue;  // all variables assigned
      }
      NewDecisionLevel();
      UncheckedEnqueue(next, kNoClause);
    }
  }
}

SolveResult Solver::Solve(Deadline deadline, const std::atomic<bool>* stop) {
  return SolveWithAssumptions({}, deadline, stop);
}

void Solver::EmitObserverSample(bool final_flush) {
  SolverRestartSample sample;
  sample.restart_index = stats_.restarts;
  sample.final_flush = final_flush;
  sample.window = stats_.Since(observer_baseline_);
  sample.tiers = TierSizes();
  observer_baseline_ = stats_;
  observer_->OnRestartSample(sample);
}

bool Solver::CheckInvariants(std::string* error) const {
  const auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = "solver invariant violated: " + std::move(message);
    }
    return false;
  };
  const std::size_t n = level_.size();

  // Per-variable and per-literal array sizes.
  if (level_.size() != n || reason_.size() != n || activity_.size() != n ||
      saved_phase_.size() != n || lit_value_.size() != 2 * n) {
    return fail("per-variable arrays disagree on the variable count");
  }
  if (watches_.size() != 2 * n || bin_overflow_.size() != 2 * n ||
      bin_overflow_nonempty_.size() != 2 * n ||
      bin_offsets_.size() != 2 * n + 1) {
    return fail("watch lists not sized to 2 * num_vars");
  }
  for (std::size_t code = 0; code < 2 * n; ++code) {
    if ((bin_overflow_nonempty_[code] != 0) != !bin_overflow_[code].empty()) {
      return fail("binary overflow non-empty flag out of sync for code " +
                  std::to_string(code));
    }
  }
  for (std::size_t code = 0; code + 1 < bin_offsets_.size(); ++code) {
    if (bin_offsets_[code] > bin_offsets_[code + 1] ||
        bin_offsets_[code + 1] > bin_flat_.size()) {
      return fail("binary CSR offsets are not a partition of the flat buffer");
    }
  }

  // The two per-literal value entries of every variable are exact
  // negations of each other (both are written on enqueue/unassign).
  for (std::size_t v = 0; v < n; ++v) {
    const LBool pos = lit_value_[2 * v];
    const LBool neg = lit_value_[2 * v + 1];
    const LBool expect_neg = pos == LBool::kUndef
                                 ? LBool::kUndef
                                 : (pos == LBool::kTrue ? LBool::kFalse
                                                        : LBool::kTrue);
    if (neg != expect_neg) {
      return fail("literal value entries disagree between polarities of x" +
                  std::to_string(v));
    }
  }

  // Trail: true literals, no repeats, level segments match trail_lim_.
  if (qhead_ > trail_.size() || qhead_bin_ > trail_.size()) {
    return fail("propagation head beyond the trail");
  }
  if (trail_.size() > n) return fail("trail longer than the variable count");
  std::size_t assigned = 0;
  for (std::size_t v = 0; v < n; ++v) assigned += Value(static_cast<Var>(v)) != LBool::kUndef;
  if (assigned != trail_.size()) {
    return fail("assigned variables (" + std::to_string(assigned) +
                ") != trail length (" + std::to_string(trail_.size()) + ")");
  }
  std::size_t previous_lim = 0;
  for (const int lim : trail_lim_) {
    if (lim < 0 || static_cast<std::size_t>(lim) > trail_.size() ||
        static_cast<std::size_t>(lim) < previous_lim) {
      return fail("trail_lim_ not a nondecreasing partition of the trail");
    }
    previous_lim = static_cast<std::size_t>(lim);
  }
  std::vector<char> on_trail(n, 0);
  std::size_t next_level = 0;
  for (std::size_t i = 0; i < trail_.size(); ++i) {
    const Lit p = trail_[i];
    if (!p.IsValid() || static_cast<std::size_t>(p.var()) >= n) {
      return fail("trail entry " + std::to_string(i) + " is invalid");
    }
    const std::size_t v = static_cast<std::size_t>(p.var());
    if (on_trail[v] != 0) {
      return fail("variable x" + std::to_string(p.var()) + " on trail twice");
    }
    on_trail[v] = 1;
    if (Value(p) != LBool::kTrue) {
      return fail("trail literal " + p.ToString() + " is not assigned true");
    }
    while (next_level < trail_lim_.size() &&
           static_cast<std::size_t>(trail_lim_[next_level]) == i) {
      ++next_level;
      if (reason_[v] != kNoClause) {
        return fail("decision literal " + p.ToString() + " has a reason");
      }
    }
    if (level_[v] != static_cast<int>(next_level)) {
      return fail("trail literal " + p.ToString() + " at level " +
                  std::to_string(level_[v]) + " inside segment " +
                  std::to_string(next_level));
    }
  }

  // Reason soundness for propagated (non-root) assignments. A stale arena
  // offset left behind by GC relocation surfaces here: the referenced
  // header would be deleted, relocated, or imply the wrong literal.
  for (std::size_t v = 0; v < n; ++v) {
    if (Value(static_cast<Var>(v)) == LBool::kUndef || level_[v] == 0) continue;
    const ClauseRef r = reason_[v];
    if (r == kNoClause) continue;  // decision (or reason nulled on removal)
    const Lit implied = Lit::Make(static_cast<Var>(v),
                                  Value(static_cast<Var>(v)) == LBool::kFalse);
    if (IsBinaryReason(r)) {
      const Lit other = BinaryReasonLit(r);
      if (!other.IsValid() || static_cast<std::size_t>(other.var()) >= n ||
          Value(other) != LBool::kFalse ||
          LevelOf(other.var()) > level_[v]) {
        return fail("binary reason of " + implied.ToString() +
                    " is not a false earlier literal");
      }
    } else {
      if (r >= arena_.size()) {
        return fail("reason of " + implied.ToString() +
                    " is a stale arena offset (out of bounds)");
      }
      const ClauseView c{const_cast<std::uint32_t*>(arena_.data()) + r};
      if (c.deleted() || c.relocated() || c.size() < 2 || c[0] != implied) {
        return fail("reason clause of " + implied.ToString() +
                    " is stale or does not imply it");
      }
      for (std::uint32_t i = 1; i < c.size(); ++i) {
        if (Value(c[i]) != LBool::kFalse || LevelOf(c[i].var()) > level_[v]) {
          return fail("reason clause of " + implied.ToString() +
                      " has a non-false tail literal");
        }
      }
    }
  }

  // Unassigned variables must be available to the decision heap.
  for (std::size_t v = 0; v < n; ++v) {
    if (Value(static_cast<Var>(v)) == LBool::kUndef && !order_.Contains(static_cast<Var>(v))) {
      return fail("unassigned variable x" + std::to_string(v) +
                  " missing from the decision heap");
    }
  }

  // Binary layer: every implication entry (frozen CSR range + overflow)
  // has its mirror, counts agree.
  std::uint64_t binary_entries = 0;
  std::uint64_t overflow_entries = 0;
  std::unordered_map<std::uint64_t, std::int64_t> mirror_balance;
  for (std::size_t code = 0; code < 2 * n; ++code) {
    const Lit* ranges[2][2];
    ranges[0][0] = bin_flat_.data() + bin_offsets_[code];
    ranges[0][1] = bin_flat_.data() + bin_offsets_[code + 1];
    ranges[1][0] = bin_overflow_[code].data();
    ranges[1][1] = ranges[1][0] + bin_overflow_[code].size();
    overflow_entries += bin_overflow_[code].size();
    for (int r = 0; r < 2; ++r) {
      for (const Lit* it = ranges[r][0]; it != ranges[r][1]; ++it) {
        const Lit q = *it;
        if (!q.IsValid() || static_cast<std::size_t>(q.var()) >= n) {
          return fail("binary implication list " + std::to_string(code) +
                      " holds an invalid literal");
        }
        ++binary_entries;
        // Entry q in list[p.code()] encodes clause (~p \/ q); its mirror
        // is entry ~p in list[(~q).code()]. Count each direction with
        // opposite signs under a direction-independent key.
        const auto pc = static_cast<std::uint64_t>(code);
        const auto qc = static_cast<std::uint64_t>(q.code());
        const std::uint64_t mc = qc ^ 1ull;  // mirror list index
        const std::uint64_t mq = pc ^ 1ull;  // mirror entry code
        const std::uint64_t forward = pc * 2 * n + qc;
        const std::uint64_t backward = mc * 2 * n + mq;
        if (forward <= backward) {
          ++mirror_balance[forward];
        } else {
          --mirror_balance[backward];
        }
      }
    }
  }
  if (overflow_entries != bin_overflow_entries_) {
    return fail("binary overflow entry counter out of sync");
  }
  // Load buffer: binaries wait there, as (a, b) pairs in emission order,
  // only while loading — before any unit, so the trail is empty and the
  // frozen layer holds nothing yet. FinishLoad releases it.
  if (loading_) {
    if (!trail_.empty() || !bin_flat_.empty() || overflow_entries != 0) {
      return fail("binary layer or trail non-empty while loading");
    }
  } else if (bin_load_.capacity() != 0) {
    return fail("load buffer not released after FinishLoad");
  }
  if (bin_load_.size() % 2 != 0) {
    return fail("load buffer holds half a binary clause");
  }
  for (std::size_t i = 0; i < bin_load_.size(); i += 2) {
    const Lit a = bin_load_[i];
    const Lit b = bin_load_[i + 1];
    if (!a.IsValid() || static_cast<std::size_t>(b.var()) >= n ||
        !(a < b) || a == ~b) {
      return fail("load buffer pair " + std::to_string(i / 2) +
                  " is not a sorted, non-tautological binary");
    }
  }
  binary_entries += bin_load_.size();
  if (binary_entries != 2 * num_binary_clauses_) {
    return fail("binary implication entries (" +
                std::to_string(binary_entries) +
                ") != 2 * num_binary_clauses_ (" +
                std::to_string(num_binary_clauses_) + " clauses)");
  }
  for (const auto& [key, balance] : mirror_balance) {
    if (balance != 0) {
      return fail("binary implication without its mirror entry (list " +
                  std::to_string(key / (2 * n)) + ", code " +
                  std::to_string(key % (2 * n)) + ")");
    }
  }

  // Arena clauses: live lists hold valid, undeleted, unrelocated clauses
  // with flags and tier tags consistent with their list and stored LBD,
  // each watched on exactly its first two literals.
  std::unordered_set<ClauseRef> live;
  std::uint64_t expected_watchers = 0;
  const std::vector<ClauseRef>* lists[4] = {&clauses_, &learnts_core_,
                                            &learnts_tier2_, &learnts_local_};
  for (int pass = 0; pass < 4; ++pass) {
    for (const ClauseRef cref : *lists[pass]) {
      if (cref >= arena_.size()) return fail("clause reference out of arena");
      const ClauseView c{const_cast<std::uint32_t*>(arena_.data()) + cref};
      if (static_cast<std::uint64_t>(cref) + c.Words() > arena_.size()) {
        return fail("clause overruns the arena");
      }
      if (c.deleted() || c.relocated()) {
        return fail("deleted/relocated clause still in a live list "
                    "(stale reference after GC)");
      }
      if (c.size() < 3) {
        return fail("arena clause of size " + std::to_string(c.size()) +
                    " (binaries belong to the binary layer)");
      }
      if (c.learnt() != (pass >= 1)) {
        return fail("clause learnt flag disagrees with its list");
      }
      if (c.learnt()) {
        // The tag is authoritative between rebuckets; once clean, the
        // holding list must match, and the tag must never be *better*
        // than the stored LBD warrants (demotion only moves down).
        if (!tiers_dirty_ &&
            c.tier() != static_cast<std::uint32_t>(pass - 1)) {
          return fail("learnt tier tag " + std::to_string(c.tier()) +
                      " disagrees with its tier list");
        }
        if (c.Lbd() == 0 || c.Lbd() > c.size()) {
          return fail("learnt clause stores LBD " + std::to_string(c.Lbd()) +
                      " outside [1, size]");
        }
        if (c.tier() < TierForLbd(c.Lbd())) {
          return fail("learnt tier tag " + std::to_string(c.tier()) +
                      " better than its stored LBD " +
                      std::to_string(c.Lbd()) + " warrants");
        }
      }
      if (!live.insert(cref).second) {
        return fail("clause listed twice");
      }
      for (std::uint32_t i = 0; i < c.size(); ++i) {
        if (!c[i].IsValid() || static_cast<std::size_t>(c[i].var()) >= n) {
          return fail("arena clause holds an invalid literal");
        }
      }
      for (int w = 0; w < 2; ++w) {
        const auto& watch_list =
            watches_[static_cast<std::size_t>((~c[w]).code())];
        const auto hits = std::count_if(
            watch_list.begin(), watch_list.end(),
            [cref](const Watcher& watcher) { return watcher.cref == cref; });
        const long expected = c[0] == c[1] ? 2 : 1;
        if (hits != expected) {
          return fail("clause watched " + std::to_string(hits) +
                      " time(s) on literal " + c[w].ToString() +
                      ", expected " + std::to_string(expected));
        }
      }
      expected_watchers += 2;
    }
  }
  std::uint64_t actual_watchers = 0;
  for (const auto& watch_list : watches_) {
    actual_watchers += watch_list.size();
    for (const Watcher& watcher : watch_list) {
      if (live.count(watcher.cref) == 0) {
        return fail("watcher holds a stale clause offset "
                    "(outside the live lists)");
      }
      // The blocking literal must belong to its clause; GC relocation and
      // in-place strengthening both preserve this.
      const ClauseView c{const_cast<std::uint32_t*>(arena_.data()) +
                         watcher.cref};
      bool member = false;
      for (std::uint32_t i = 0; i < c.size() && !member; ++i) {
        member = c[i] == watcher.blocker;
      }
      if (!member) {
        return fail("cached blocking literal " + watcher.blocker.ToString() +
                    " is not a literal of its clause");
      }
    }
  }
  if (actual_watchers != expected_watchers) {
    return fail("total watcher entries (" + std::to_string(actual_watchers) +
                ") != 2 * live clauses (" +
                std::to_string(expected_watchers / 2) + ")");
  }
  return true;
}

SolveResult Solver::SolveWithAssumptions(const std::vector<Lit>& assumptions,
                                         Deadline deadline,
                                         const std::atomic<bool>* stop) {
  Stopwatch stopwatch;
  model_.clear();
  budget_exhausted_ = false;
  conflict_under_assumptions_ = false;
  assumptions_ = assumptions;
  if (!ok_) return SolveResult::kUnsat;
  FinishLoad();

  max_learnts_ =
      std::max(1000.0, static_cast<double>(clauses_.size() +
                                           num_binary_clauses_) *
                           options_.learnt_size_factor);
  LBool status = LBool::kUndef;
  int restarts = 0;
  while (status == LBool::kUndef && !budget_exhausted_) {
    Stopwatch inprocess_watch;
    // Restart boundary: the solver is at level 0, so the tier lists can be
    // rebucketed and tier2 clauses vivified before the next descent.
    RebucketLearnts();
    // Learnt binaries accumulate in the scattered overflow lists; once
    // enough pile up, fold them into the frozen CSR so the propagation
    // fast path scans one contiguous range again.
    if (bin_overflow_entries_ > 1024) {
      CompactBinaryLayer(/*drop_satisfied=*/true);
    }
    if (options_.debug_check_invariants) {
      std::string violation;
      if (!CheckInvariants(&violation)) {
        std::fprintf(stderr, "%s (restart %d)\n", violation.c_str(),
                     restarts);
        std::abort();
      }
    }
    if (options_.vivify && restarts > 0 &&
        options_.vivify_interval > 0 &&
        restarts % options_.vivify_interval == 0) {
      VivifyRound();
      if (!ok_) {
        status = LBool::kFalse;
        break;
      }
    }
    if (observer_ != nullptr) {
      stats_.inprocess_seconds += inprocess_watch.Seconds();
    }
    const double base =
        options_.luby_restarts
            ? Luby(2.0, restarts)
            : std::pow(options_.restart_growth, restarts);
    const auto budget = static_cast<std::int64_t>(
        base * static_cast<double>(options_.restart_base));
    status = Search(budget, deadline, stop);
    ++restarts;
    ++stats_.restarts;
    if (observer_ != nullptr && status == LBool::kUndef &&
        !budget_exhausted_) {
      EmitObserverSample(/*final_flush=*/false);
    }
  }
  stats_.solve_seconds += stopwatch.Seconds();
  // Flush the partial window since the last restart so observer-side
  // totals cover the whole solve (the telemetry-consistency pass depends
  // on the sum of windows equaling the stats delta exactly).
  if (observer_ != nullptr) EmitObserverSample(/*final_flush=*/true);

  if (status == LBool::kTrue) {
    model_.resize(static_cast<std::size_t>(num_vars()));
    for (int v = 0; v < num_vars(); ++v) {
      model_[static_cast<std::size_t>(v)] =
          (Value(static_cast<Var>(v)) == LBool::kTrue);
    }
    Backtrack(0);
    return SolveResult::kSat;
  }
  if (status == LBool::kFalse) {
    // A conflict among the assumptions leaves the solver reusable; a
    // top-level conflict refutes the formula outright.
    if (!conflict_under_assumptions_) ok_ = false;
    Backtrack(0);
    return SolveResult::kUnsat;
  }
  Backtrack(0);
  return SolveResult::kUnknown;
}

}  // namespace satfr::sat
