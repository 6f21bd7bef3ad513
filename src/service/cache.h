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
// The cache is a sharded bounded LRU map: shard = key-hash % num_shards,
// each shard one `mc::Mutex` around an intrusive LRU list + hash index,
// bounded by entries AND approximate heap bytes. The graph's 64-bit
// fingerprint only hashes a key; a hit needs full key equality, which
// compares the graph itself (same pointer, or structurally equal), so two
// graphs that share a fingerprint never share an answer.
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
    // Final avalanche so shard selection (low bits) mixes the width too.
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

}  // namespace satfr::service

#endif  // SATFR_SERVICE_CACHE_H_
