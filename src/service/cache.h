// Two-tier result cache for the routing service (DESIGN.md §15).
//
// Tier 1 — instance cache: materialized `encode::EncodedColoring` (CNF
// bytes + variable layout), keyed by (conflict-graph fingerprint, W,
// encoding, symmetry). A hit skips the symmetry sequence and the whole
// encoder; the solver loads the cached clauses through
// `DetailedRouteOptions::reuse_encoding`.
//
// Tier 2 — verdict cache: finished answers (status + tracks + cold-solve
// timing), keyed by the instance key PLUS the solver preset (the verdict
// depends on which solver produced it only through timeouts, but a preset
// change must not alias a cached answer). A hit skips everything. Each
// entry keeps a hit counter, and every entry pins the conflict graph it
// answered for, so the `service-cache-coherence` satlint pass can re-solve
// sampled entries fresh and compare.
//
// Both tiers are sharded bounded LRU maps: shard = key-hash % num_shards,
// each shard one `mc::Mutex` around an intrusive LRU list + hash index,
// bounded by entries AND approximate heap bytes. All synchronization goes
// through the mc:: shim, so the model checker covers the cache
// (tests/mc_litmus_test.cpp), and a seqlock-published summary table
// (`SeqlockedSlot`) serves repeat-UNSAT probes without taking any lock —
// the litmus suite proves a reader can never observe a torn or
// stale-generation summary.
#ifndef SATFR_SERVICE_CACHE_H_
#define SATFR_SERVICE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mc/annotations.h"
#include "mc/shim.h"

// Mutation hook for the model-check mutation suite (same pattern as the
// deque hooks in cube/work_queue.h): weakens the seqlock writer's release
// ordering so a reader can observe a new generation with stale payload —
// the checker must catch it. Never defined in production builds.
#if defined(SATFR_MC_MUTATE_CACHE_PUBLISH_RELEASE)
#if !defined(SATFR_MODEL_CHECK)
#error "SATFR_MC_MUTATE_* requires SATFR_MODEL_CHECK"
#endif
#endif

namespace satfr::graph {
class Graph;
}  // namespace satfr::graph

namespace satfr::service {

namespace detail {
#if defined(SATFR_MC_MUTATE_CACHE_PUBLISH_RELEASE)
inline constexpr std::memory_order kSeqlockPublishOrder =
    std::memory_order_relaxed;  // MUTATED: checker must catch a stale read
#else
inline constexpr std::memory_order kSeqlockPublishOrder =
    std::memory_order_release;
#endif
}  // namespace detail

/// 64-bit structural fingerprint of a conflict graph: vertex count plus
/// every edge, FNV-mixed in Edges() order. Stands in for the
/// (netlist, placement) pair in cache keys — two placements of two
/// netlists that induce the same conflict graph are the same routing
/// instance by construction.
std::uint64_t FingerprintGraph(const graph::Graph& g);

/// What a cached answer is keyed by. `solver` is empty for the instance
/// tier (an encoded CNF is solver-independent) and the preset name for the
/// verdict tier.
struct CacheKey {
  std::uint64_t fingerprint = 0;
  int width = 0;
  std::string encoding;
  std::string symmetry;
  std::string solver;

  bool operator==(const CacheKey& other) const = default;

  std::uint64_t Hash() const {
    std::uint64_t h = StableHash64(encoding);
    h = h * 1099511628211ULL ^ StableHash64(symmetry);
    h = h * 1099511628211ULL ^ StableHash64(solver);
    h = h * 1099511628211ULL ^ fingerprint;
    h = h * 1099511628211ULL ^ static_cast<std::uint64_t>(width);
    // Final avalanche so shard selection (low bits) mixes the width too.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }

  std::string ToString() const;
};

/// A single-writer seqlock cell publishing a trivially copyable T to
/// lock-free readers. Writers (serialized externally — the owning shard's
/// mutex) bump the generation to odd, store the payload word by word, then
/// bump to even with release; readers retry on odd or moved generations.
/// Generation 0 means "never published". The no-torn/no-stale property is
/// proved by the mc litmus suite and the PUBLISH_RELEASE mutation binary.
template <typename T>
class SeqlockedSlot {
  static_assert(std::is_trivially_copyable_v<T>,
                "seqlock payloads are copied as raw words");
  static constexpr std::size_t kWords = (sizeof(T) + 7) / 8;

 public:
  SeqlockedSlot() = default;
  SeqlockedSlot(const SeqlockedSlot&) = delete;
  SeqlockedSlot& operator=(const SeqlockedSlot&) = delete;

  /// Single writer at a time (callers hold the owning shard's lock).
  void Publish(const T& value) {
    std::uint64_t words[kWords] = {};
    std::memcpy(words, &value, sizeof(T));
    const std::uint64_t g = gen_.load(std::memory_order_relaxed);
    // Odd generation = write in progress. The release FENCE (not the store
    // order) is what forbids the payload stores from appearing before the
    // odd generation becomes visible.
    gen_.store(g + 1, std::memory_order_relaxed);
    mc::Fence(std::memory_order_release);
    for (std::size_t i = 0; i < kWords; ++i) {
      words_[i].store(words[i], std::memory_order_relaxed);
    }
    // Even generation republishes; release pairs with the reader's acquire
    // load so a reader seeing g+2 sees the full payload (mutation hook:
    // weakening this lets a reader pair new generation with old words).
    gen_.store(g + 2, detail::kSeqlockPublishOrder);
  }

  /// Any thread, lock-free. False when never published or a concurrent
  /// Publish overlapped (callers fall back to the locked tier).
  bool TryRead(T* out) const {
    const std::uint64_t g1 = gen_.load(std::memory_order_acquire);
    if (g1 == 0 || (g1 & 1) != 0) return false;
    std::uint64_t words[kWords];
    for (std::size_t i = 0; i < kWords; ++i) {
      words[i] = words_[i].load(std::memory_order_relaxed);
    }
    // Acquire fence before the generation re-read: if any payload load saw
    // a write that happened after our g1, the re-read is guaranteed to see
    // the bumped (odd or advanced) generation and we retry.
    mc::Fence(std::memory_order_acquire);
    if (gen_.load(std::memory_order_relaxed) != g1) return false;
    std::memcpy(out, words, sizeof(T));
    return true;
  }

 private:
  mc::Atomic<std::uint64_t> gen_{0};
  mc::Atomic<std::uint64_t> words_[kWords] = {};
};

/// Compact verdict published through the seqlock fast path. UNSAT repeats
/// (the paper's W*-1 headline queries) are fully answerable from this —
/// no tracks needed — so they never touch a shard mutex.
struct VerdictSummary {
  std::uint64_t key_hash = 0;  // full CacheKey::Hash of the entry
  std::int32_t status = 0;     // sat::SolveResult as int
  std::int32_t width = 0;
  double cold_solve_seconds = 0.0;
};

struct CacheTierStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
};

struct CacheTierOptions {
  std::size_t num_shards = 8;
  std::size_t max_entries_per_shard = 64;
  std::size_t max_bytes_per_shard = 64u << 20;  // 64 MiB
};

/// Sharded bounded LRU map from CacheKey to shared_ptr<const V>. V is
/// immutable once inserted; eviction only drops the cache's reference, so
/// in-flight readers keep their snapshot alive.
template <typename V>
class ShardedLruCache {
 public:
  struct SampledEntry {
    CacheKey key;
    std::shared_ptr<const V> value;
    std::uint64_t hits = 0;
  };

  explicit ShardedLruCache(const CacheTierOptions& options = {})
      : options_(options),
        shards_(options.num_shards == 0 ? 1 : options.num_shards) {}

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Returns the cached value (promoting it to most-recently-used) or null.
  /// `hits_out`, when non-null, receives the entry's post-increment hit
  /// count on a hit.
  std::shared_ptr<const V> Lookup(const CacheKey& key,
                                  std::uint64_t* hits_out = nullptr) {
    const std::uint64_t h = key.Hash();
    Shard& shard = ShardFor(h);
    mc::MutexLock lock(shard.mutex);
    ++shard.stats.lookups;
    auto it = shard.index.find(h);
    // Hash collisions across distinct keys fall through to a miss; the
    // colliding resident stays (first writer wins the 64-bit slot).
    if (it == shard.index.end() || !(it->second->key == key)) {
      return nullptr;
    }
    Entry& entry = *it->second;
    ++entry.hit_count;
    ++shard.stats.hits;
    if (hits_out != nullptr) *hits_out = entry.hit_count;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return entry.value;
  }

  /// Inserts (or refreshes) `key`; `bytes` is the entry's approximate heap
  /// footprint for the byte bound. Evicts least-recently-used entries
  /// until both shard bounds hold.
  void Insert(const CacheKey& key, std::shared_ptr<const V> value,
              std::size_t bytes) {
    const std::uint64_t h = key.Hash();
    Shard& shard = ShardFor(h);
    mc::MutexLock lock(shard.mutex);
    auto it = shard.index.find(h);
    if (it != shard.index.end()) {
      // A distinct key with the same 64-bit hash is resident: first writer
      // wins the slot, so the resident key keeps its own value.
      if (!(it->second->key == key)) return;
      // Refresh in place (idempotent re-insert after a racing miss).
      shard.bytes -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      shard.bytes += bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.push_front(Entry{key, std::move(value), bytes, 0});
    shard.index.emplace(h, shard.lru.begin());
    shard.bytes += bytes;
    ++shard.stats.insertions;
    while (shard.lru.size() > options_.max_entries_per_shard ||
           (shard.bytes > options_.max_bytes_per_shard &&
            shard.lru.size() > 1)) {
      const Entry& victim = shard.lru.back();
      shard.bytes -= victim.bytes;
      shard.index.erase(victim.key.Hash());
      shard.lru.pop_back();
      ++shard.stats.evictions;
    }
  }

  bool Erase(const CacheKey& key) {
    const std::uint64_t h = key.Hash();
    Shard& shard = ShardFor(h);
    mc::MutexLock lock(shard.mutex);
    auto it = shard.index.find(h);
    if (it == shard.index.end() || !(it->second->key == key)) return false;
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
    return true;
  }

  /// Point-in-time totals over every shard.
  CacheTierStats stats() const {
    CacheTierStats total;
    for (const Shard& shard : shards_) {
      mc::MutexLock lock(shard.mutex);
      total.lookups += shard.stats.lookups;
      total.hits += shard.stats.hits;
      total.insertions += shard.stats.insertions;
      total.evictions += shard.stats.evictions;
      total.entries += shard.lru.size();
      total.bytes += shard.bytes;
    }
    return total;
  }

  /// Up to `max_samples` resident entries, deterministically pseudo-random
  /// in `seed` (coherence lint sampling). Holds one shard lock at a time.
  std::vector<SampledEntry> Sample(std::size_t max_samples,
                                   std::uint64_t seed) const {
    std::vector<SampledEntry> all;
    for (const Shard& shard : shards_) {
      mc::MutexLock lock(shard.mutex);
      for (const Entry& entry : shard.lru) {
        all.push_back(SampledEntry{entry.key, entry.value, entry.hit_count});
      }
    }
    if (all.size() > max_samples) {
      // Partial Fisher-Yates with the repo's deterministic Rng.
      Rng rng(seed != 0 ? seed : 1);
      for (std::size_t i = 0; i < max_samples; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(rng.NextBelow(all.size() - i));
        std::swap(all[i], all[j]);
      }
      all.resize(max_samples);
    }
    return all;
  }

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const V> value;
    std::size_t bytes = 0;
    std::uint64_t hit_count = 0;
  };

  struct Shard {
    mutable mc::Mutex mutex;
    std::list<Entry> lru SATFR_GUARDED_BY(mutex);
    std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator>
        index SATFR_GUARDED_BY(mutex);
    std::size_t bytes SATFR_GUARDED_BY(mutex) = 0;
    CacheTierStats stats SATFR_GUARDED_BY(mutex);
  };

  Shard& ShardFor(std::uint64_t hash) {
    return shards_[static_cast<std::size_t>(hash % shards_.size())];
  }
  const Shard& ShardFor(std::uint64_t hash) const {
    return shards_[static_cast<std::size_t>(hash % shards_.size())];
  }

  const CacheTierOptions options_;
  // Count fixed at construction, never resized: shard addresses stay
  // stable even though Shard itself is neither movable nor copyable.
  mutable std::vector<Shard> shards_;
};

/// Direct-mapped, lock-free table of seqlock-published verdict summaries
/// in front of the verdict tier. A probe that finds a matching key hash
/// answers without any lock; collisions simply overwrite (it is a cache of
/// a cache — the locked tier is the source of truth).
class VerdictSummaryTable {
 public:
  explicit VerdictSummaryTable(std::size_t slots = 256)
      : slots_(RoundUpPow2(slots)), table_(new Slot[slots_]) {}

  /// Writers serialize on one publish mutex (publishes are rare — one per
  /// cold solve); probes stay lock-free.
  void Publish(const VerdictSummary& summary) {
    mc::MutexLock lock(publish_mutex_);
    table_[IndexFor(summary.key_hash)].cell.Publish(summary);
  }

  /// Lock-free. True only for a coherent summary whose key hash matches.
  bool Probe(std::uint64_t key_hash, VerdictSummary* out) const {
    if (!table_[IndexFor(key_hash)].cell.TryRead(out)) return false;
    return out->key_hash == key_hash;
  }

  std::size_t num_slots() const { return slots_; }

 private:
  struct Slot {
    SeqlockedSlot<VerdictSummary> cell;
  };

  static std::size_t RoundUpPow2(std::size_t n) {
    std::size_t cap = 1;
    while (cap < n) cap <<= 1;
    return cap;
  }
  std::size_t IndexFor(std::uint64_t key_hash) const {
    return static_cast<std::size_t>(key_hash) & (slots_ - 1);
  }

  mutable mc::Mutex publish_mutex_;
  std::size_t slots_;
  std::unique_ptr<Slot[]> table_;
};

}  // namespace satfr::service

#endif  // SATFR_SERVICE_CACHE_H_
