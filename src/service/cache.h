// The routing service's verdict cache (DESIGN.md §15).
//
// It holds finished answers (status + tracks), keyed by (conflict graph, W,
// encoding, symmetry, solver preset): the verdict depends on which solver
// produced it only through timeouts, but a preset change must not alias a
// cached answer. A hit skips everything; a miss is solved fresh, its
// encoding streamed into the solver. Each entry keeps a hit counter, and
// every key pins the conflict graph it answered for, so the
// `service-cache-coherence` satlint pass can re-solve sampled entries fresh
// and compare.
//
// The cache is one bounded LRU map under one `mc::Mutex`: an LRU list plus
// a hash index keyed by the whole CacheKey, bounded by entries AND
// approximate heap bytes. It sees one lookup per service request, so a
// single lock is enough (DESIGN.md §15). The graph's 64-bit fingerprint
// only hashes a key; the index compares keys with operator==, which
// compares the graph itself (same pointer, or structurally equal), so two
// graphs that share a fingerprint never share an answer, and two keys whose
// hashes collide are both cached.
#ifndef SATFR_SERVICE_CACHE_H_
#define SATFR_SERVICE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mc/annotations.h"
#include "mc/shim.h"

namespace satfr::graph {
class Graph;
}  // namespace satfr::graph

namespace satfr::service {

/// 64-bit structural fingerprint of a conflict graph: vertex count plus
/// every edge, FNV-mixed in Edges() order. It hashes cache keys; equal
/// graphs always share it, but sharing it does not make graphs equal.
std::uint64_t FingerprintGraph(const graph::Graph& g);

/// What a cached answer is keyed by. Stands in for the (netlist,
/// placement) pair: two placements of two netlists that induce the same
/// conflict graph are the same routing instance by construction. `solver`
/// is the preset name ("siege", "minisat").
struct CacheKey {
  std::shared_ptr<const graph::Graph> graph;
  std::uint64_t fingerprint = 0;  // FingerprintGraph(*graph): the hash only
  int width = 0;
  std::string encoding;
  std::string symmetry;
  std::string solver;

  /// Every field equal, and the graphs the same pointer or structurally
  /// equal; the fingerprint alone never decides equality.
  bool operator==(const CacheKey& other) const;

  std::uint64_t Hash() const {
    std::uint64_t h = StableHash64(encoding);
    h = h * 1099511628211ULL ^ StableHash64(symmetry);
    h = h * 1099511628211ULL ^ StableHash64(solver);
    h = h * 1099511628211ULL ^ fingerprint;
    h = h * 1099511628211ULL ^ static_cast<std::uint64_t>(width);
    // Final avalanche so the index's bucket choice (low bits) mixes the
    // width too.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }

  std::string ToString() const;
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
  std::size_t max_entries = 2048;
  std::size_t max_bytes = 64u << 20;  // 64 MiB
};

/// Bounded LRU map from CacheKey to shared_ptr<const V>. V is immutable
/// once inserted; eviction only drops the cache's reference, so in-flight
/// readers keep their snapshot alive.
template <typename V>
class LruCache {
 public:
  struct SampledEntry {
    CacheKey key;
    std::shared_ptr<const V> value;
    std::uint64_t hits = 0;
  };

  explicit LruCache(const CacheTierOptions& options = {})
      : options_(options) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Returns the cached value (promoting it to most-recently-used) or null.
  /// `hits_out`, when non-null, receives the entry's post-increment hit
  /// count on a hit.
  std::shared_ptr<const V> Lookup(const CacheKey& key,
                                  std::uint64_t* hits_out = nullptr) {
    mc::MutexLock lock(mutex_);
    ++stats_.lookups;
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    Entry& entry = *it->second;
    ++entry.hit_count;
    ++stats_.hits;
    if (hits_out != nullptr) *hits_out = entry.hit_count;
    lru_.splice(lru_.begin(), lru_, it->second);
    return entry.value;
  }

  /// Inserts (or refreshes) `key`; `bytes` is the entry's approximate heap
  /// footprint for the byte bound. Evicts least-recently-used entries
  /// until both bounds hold.
  void Insert(const CacheKey& key, std::shared_ptr<const V> value,
              std::size_t bytes) {
    mc::MutexLock lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      // Refresh in place (idempotent re-insert after a racing miss).
      bytes_ -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      bytes_ += bytes;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{key, std::move(value), bytes, 0});
    index_.emplace(key, lru_.begin());
    bytes_ += bytes;
    ++stats_.insertions;
    while (lru_.size() > options_.max_entries ||
           (bytes_ > options_.max_bytes && lru_.size() > 1)) {
      const Entry& victim = lru_.back();
      bytes_ -= victim.bytes;
      index_.erase(victim.key);
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  bool Erase(const CacheKey& key) {
    mc::MutexLock lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
    return true;
  }

  /// Point-in-time totals.
  CacheTierStats stats() const {
    mc::MutexLock lock(mutex_);
    CacheTierStats total = stats_;
    total.entries = lru_.size();
    total.bytes = bytes_;
    return total;
  }

  /// Up to `max_samples` resident entries, deterministically pseudo-random
  /// in `seed` (coherence lint sampling).
  std::vector<SampledEntry> Sample(std::size_t max_samples,
                                   std::uint64_t seed) const {
    std::vector<SampledEntry> all;
    {
      mc::MutexLock lock(mutex_);
      for (const Entry& entry : lru_) {
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

  struct KeyHash {
    std::size_t operator()(const CacheKey& key) const {
      return static_cast<std::size_t>(key.Hash());
    }
  };

  const CacheTierOptions options_;
  mutable mc::Mutex mutex_;
  std::list<Entry> lru_ SATFR_GUARDED_BY(mutex_);
  std::unordered_map<CacheKey, typename std::list<Entry>::iterator, KeyHash>
      index_ SATFR_GUARDED_BY(mutex_);
  std::size_t bytes_ SATFR_GUARDED_BY(mutex_) = 0;
  CacheTierStats stats_ SATFR_GUARDED_BY(mutex_);
};

}  // namespace satfr::service

#endif  // SATFR_SERVICE_CACHE_H_
