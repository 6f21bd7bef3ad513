// Chase-Lev work-stealing deque over cube indices.
//
// Each cube worker owns one deque: the owner pushes and pops at the bottom
// (LIFO, so it walks its own cubes in the order they were enqueued when the
// coordinator pushes them in reverse), and idle workers steal from the top
// (FIFO, so a thief takes the cube its victim would have reached last —
// minimal interference with the victim's locality). The implementation is
// the C11-memory-model formulation of Lê, Pop, Cohen & Nardelli,
// "Correct and Efficient Work-Stealing for Weakly Ordered Memory Models"
// (PPoPP 2013), restricted to a fixed power-of-two capacity: the total cube
// count is known before any worker starts, so the dynamic buffer growth of
// the general algorithm is dead weight here.
//
// Thread-safety contract: PushBottom/PopBottom may only be called by the
// owning worker; Steal may be called by any thread. All operations are
// lock-free (Steal is obstruction-free in the standard Chase-Lev sense: a
// CAS failure means another thief or the owner got the element).
//
// All atomics go through the mc:: shim (src/mc/shim.h): plain std::atomic
// in normal builds, model-checked under SATFR_MODEL_CHECK. The "no cube
// lost or popped twice" property and every weakened memory_order below are
// verified by tests/mc_litmus_test.cpp; tests/mc_mutation_test.cpp proves
// the checker catches the seeded weakenings guarded by the SATFR_MC_MUTATE_*
// hooks.
#ifndef SATFR_CUBE_WORK_QUEUE_H_
#define SATFR_CUBE_WORK_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "mc/shim.h"

// Mutation hooks for the model-check mutation suite: each deliberately
// weakens one memory_order the litmus proofs depend on, so the checker must
// flag it. Never defined in production builds.
#if defined(SATFR_MC_MUTATE_DEQUE_POP_FENCE) || \
    defined(SATFR_MC_MUTATE_DEQUE_STEAL_BOTTOM)
#if !defined(SATFR_MODEL_CHECK)
#error "SATFR_MC_MUTATE_* requires SATFR_MODEL_CHECK"
#endif
#endif

namespace satfr::cube {

namespace detail {
#if defined(SATFR_MC_MUTATE_DEQUE_POP_FENCE)
inline constexpr std::memory_order kPopBottomFenceOrder =
    std::memory_order_relaxed;  // MUTATED: checker must catch a double-take
#else
inline constexpr std::memory_order kPopBottomFenceOrder =
    std::memory_order_seq_cst;
#endif
#if defined(SATFR_MC_MUTATE_DEQUE_STEAL_BOTTOM)
inline constexpr std::memory_order kStealBottomLoadOrder =
    std::memory_order_relaxed;  // MUTATED: checker must catch a stale element
#else
inline constexpr std::memory_order kStealBottomLoadOrder =
    std::memory_order_acquire;
#endif
}  // namespace detail

class WorkStealingDeque {
 public:
  /// Capacity is rounded up to a power of two. The caller must never hold
  /// more than `capacity` elements in the deque at once (checked in debug
  /// builds by the coordinator, which sizes the deque to its cube share).
  explicit WorkStealingDeque(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    buffer_.reset(new mc::Atomic<std::int64_t>[cap]);
  }

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner only. Enqueues `item` at the bottom.
  void PushBottom(std::int64_t item) {
    // relaxed: bottom_ is only written by the owner, so its own last value
    // is the current one; no other thread's writes need ordering here.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    // relaxed: the slot write is published by the release fence below, not
    // by its own order.
    buffer_[static_cast<std::size_t>(b) & mask_].store(
        item, std::memory_order_relaxed);
    // Release fence + relaxed bottom store pairs with the thief's acquire
    // bottom load in Steal: a thief that observes the new bottom also
    // observes the element written above.
    mc::Fence(std::memory_order_release);
    // relaxed: publication ordering is carried by the fence above.
    bottom_.store(b + 1, std::memory_order_relaxed);
  }

  /// Owner only. Dequeues the most recently pushed element into *item;
  /// false when the deque is empty. On the last element the owner races
  /// thieves through a CAS on top, exactly one party wins.
  bool PopBottom(std::int64_t* item) {
    // relaxed twice: owner-only variable, same as PushBottom.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    // seq_cst fence: orders the bottom decrement against the top load in
    // the single total order shared with the thief's seq_cst CAS — either a
    // concurrent thief sees the decrement (and finds the deque empty), or
    // we see its top increment (and race it with the CAS below). Weakening
    // this is the classic Chase-Lev double-take bug (mutation hook).
    mc::Fence(detail::kPopBottomFenceOrder);
    // relaxed: freshness is forced by the seq_cst fence above; top_ needs
    // no acquire because the owner never reads thief-written payload.
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      // Already empty: restore bottom. relaxed: only the owner reads it
      // without the Steal fence protocol.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    // relaxed: the owner wrote this slot itself (or synchronized with the
    // thief CAS that emptied it via seq_cst).
    *item = buffer_[static_cast<std::size_t>(b) & mask_].load(
        std::memory_order_relaxed);
    if (t == b) {
      // Last element: contend with thieves for it. seq_cst success keeps
      // the CAS in the same total order as the fences; relaxed failure is
      // enough because losing only leads to restoring bottom.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;
  }

  /// Any thread. Takes the oldest element into *item; false when the deque
  /// is empty or the element was lost to a concurrent pop/steal (callers
  /// treat both as "try elsewhere").
  bool Steal(std::int64_t* item) {
    // acquire: synchronizes with the release CAS of other thieves so the
    // bottom check below uses a bottom at least as fresh as top.
    std::int64_t t = top_.load(std::memory_order_acquire);
    // seq_cst fence: orders the top load before the bottom load in the
    // total order shared with PopBottom's fence (see there).
    mc::Fence(std::memory_order_seq_cst);
    // acquire: pairs with the owner's release fence in PushBottom — seeing
    // bottom > t guarantees the element at t is initialized (mutation hook:
    // weakening this lets a thief read a stale slot).
    const std::int64_t b = bottom_.load(detail::kStealBottomLoadOrder);
    if (t >= b) return false;
    // relaxed: the acquire bottom load above already ordered the slot
    // write before this read.
    const std::int64_t candidate =
        buffer_[static_cast<std::size_t>(t) & mask_].load(
            std::memory_order_relaxed);
    // seq_cst success: participates in the owner-vs-thief total order (see
    // PopBottom); relaxed failure: a lost race carries no data.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return false;  // lost the race; element taken by owner or other thief
    }
    *item = candidate;
    return true;
  }

  /// Approximate (racy) emptiness — a scheduling hint, never a correctness
  /// signal (hence relaxed on both loads).
  bool Empty() const {
    return top_.load(std::memory_order_relaxed) >=
           bottom_.load(std::memory_order_relaxed);
  }

 private:
  mc::Atomic<std::int64_t> top_{0};
  mc::Atomic<std::int64_t> bottom_{0};
  std::unique_ptr<mc::Atomic<std::int64_t>[]> buffer_;
  std::size_t mask_ = 0;
};

}  // namespace satfr::cube

#endif  // SATFR_CUBE_WORK_QUEUE_H_
