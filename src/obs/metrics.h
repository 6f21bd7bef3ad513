// Process-wide metrics registry: named counters, gauges, and log-bucketed
// histograms with per-thread sharded updates.
//
// Hot-path contract: Add/Observe take NO lock and touch NO shared cache
// line. Each thread owns a shard — a flat array of relaxed atomics, one slot
// per counter and one per histogram bucket — reached through a thread_local
// cache keyed by the registry's unique id. The registry mutex is taken only
// on the cold paths: metric registration, first touch of a registry by a
// thread (shard creation), and Snapshot (which sums the slot across every
// shard; relaxed loads are fine because a snapshot is a statistical reading,
// not a synchronization point).
//
// Histograms are log2-bucketed: bucket 0 holds the value 0, bucket i >= 1
// holds [2^(i-1), 2^i); values past the last boundary clamp into the final
// bucket. Merging per-thread histograms is bucket-wise addition, which is
// exactly what Snapshot does.
//
// Gauges are last-write-wins process-level atomics (a gauge is a level, not
// a flow — sharded summation would be meaningless for it).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "mc/annotations.h"
#include "mc/shim.h"
#include "obs/json.h"

namespace satfr::obs {

/// Handle for hot-path updates. Cheap to copy; invalid handles (default
/// constructed) are safely ignored by Add/Observe.
struct MetricId {
  static constexpr std::uint32_t kInvalidSlot = 0xFFFFFFFFu;
  // Gauge ids carry this bit: they index the registry-level gauge table,
  // not a shard slot.
  static constexpr std::uint32_t kGaugeBit = 0x80000000u;
  std::uint32_t slot = kInvalidSlot;
  bool valid() const { return slot != kInvalidSlot; }
};

enum class MetricKind { kCounter, kGauge, kHistogram };

struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;              // counters
  std::int64_t gauge = 0;               // gauges
  std::vector<std::uint64_t> buckets;   // histograms (log2 buckets)
  std::uint64_t count = 0;              // histogram total observations

  /// Conservative percentile read off the log2 buckets: the inclusive upper
  /// bound (2^i - 1) of the bucket holding the ceil(p * count)-th smallest
  /// observation, 0 for bucket 0. At most 2x above the true percentile by
  /// construction (except in the final clamp bucket, where it is a floor of
  /// 2^32 - 1). Returns 0 on empty histograms and non-histogram metrics.
  std::uint64_t ApproxPercentile(double p) const;
};

struct MetricsSnapshot {
  std::vector<MetricSnapshot> metrics;

  /// Metric by name; nullptr when absent.
  const MetricSnapshot* Find(const std::string& name) const;

  /// JSON object keyed by metric name (histograms become
  /// {"count": N, "buckets": [...]}).
  JsonValue ToJson() const;
};

class MetricsRegistry {
 public:
  /// Number of log2 histogram buckets: bucket 0 = {0}, bucket i in [1, 32]
  /// = [2^(i-1), 2^i), with everything >= 2^32 clamped into bucket 32.
  static constexpr std::uint32_t kHistogramBuckets = 33;

  /// Fixed shard capacity in slots. Registration past this returns an
  /// invalid id (updates on it are dropped) rather than resizing live
  /// shards under concurrent writers.
  static constexpr std::uint32_t kShardSlots = 1024;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds — same name returns the same id) a metric.
  MetricId Counter(const std::string& name);
  MetricId Gauge(const std::string& name);
  MetricId Histogram(const std::string& name);

  /// Hot path: adds `delta` to a counter. Lock-free, relaxed.
  void Add(MetricId id, std::uint64_t delta = 1);

  /// Hot path: records one histogram observation. Lock-free, relaxed.
  void Observe(MetricId id, std::uint64_t value);

  /// Sets a gauge (process-level, last write wins).
  void SetGauge(MetricId id, std::int64_t value);

  /// Sums every shard into a point-in-time reading.
  MetricsSnapshot Snapshot() const;

  /// The log2 bucket index for `value` (exposed for the bucket tests).
  static std::uint32_t BucketFor(std::uint64_t value) {
    if (value == 0) return 0;
    const auto width = static_cast<std::uint32_t>(std::bit_width(value));
    return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
  }

  /// Inclusive lower bound of bucket `i` (0 for buckets 0 and 1).
  static std::uint64_t BucketLowerBound(std::uint32_t i) {
    return i <= 1 ? 0 : (std::uint64_t{1} << (i - 1));
  }

 private:
  struct Shard {
    // relaxed everywhere: slots are statistics, each written by one thread
    // and only folded together under the registry mutex in Snapshot.
    std::atomic<std::uint64_t> slots[kShardSlots];
    Shard() {
      for (auto& s : slots) s.store(0, std::memory_order_relaxed);
    }
  };

  struct Entry {
    std::string name;
    MetricKind kind;
    std::uint32_t first_slot;  // histograms span kHistogramBuckets slots
  };

  Shard* ShardForThisThread() SATFR_EXCLUDES(mutex_);
  MetricId Register(const std::string& name, MetricKind kind,
                    std::uint32_t slots_needed) SATFR_EXCLUDES(mutex_);

  const std::uint64_t id_;  // process-unique, never reused
  mutable mc::Mutex mutex_;
  std::vector<Entry> entries_ SATFR_GUARDED_BY(mutex_);
  // deque: gauges are registered while other threads store through stable
  // references, and deque growth never relocates existing elements. The
  // container is guarded; the atomics inside are written under the mutex
  // but may be read lock-free through stable references.
  std::deque<std::atomic<std::int64_t>> gauges_ SATFR_GUARDED_BY(mutex_);
  std::vector<std::string> gauge_names_ SATFR_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<Shard>> shards_ SATFR_GUARDED_BY(mutex_);
  std::uint32_t next_slot_ SATFR_GUARDED_BY(mutex_) = 0;
};

/// The process-wide registry all subsystems share. Always available;
/// snapshotting it is how `satfr --metrics-out` materializes a report.
MetricsRegistry& GlobalMetrics();

}  // namespace satfr::obs
