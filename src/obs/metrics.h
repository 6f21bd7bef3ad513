// Process-wide metrics registry: named counters and log-bucketed
// histograms.
//
// One table of plain 64-bit slots — one per counter, kHistogramBuckets per
// histogram — guarded by the registry's mutex. Add, Observe, registration
// and Snapshot all take that lock. Updates arrive at request rate (a few
// per service request or session delta, one per width solve; the solver
// observer's per-restart updates only while a trace or report sink is
// installed), far below the point where a contended mutex shows, so the
// table is neither sharded nor lock-free. Registration appends slots, so
// the table has no fixed capacity.
//
// Histograms are log2-bucketed: bucket 0 holds the value 0, bucket i >= 1
// holds [2^(i-1), 2^i); values past the last boundary clamp into the final
// bucket.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "mc/annotations.h"
#include "mc/shim.h"
#include "obs/json.h"

namespace satfr::obs {

/// Handle for updates. Cheap to copy; invalid handles (default
/// constructed) are safely ignored by Add/Observe.
struct MetricId {
  static constexpr std::uint32_t kInvalidSlot = 0xFFFFFFFFu;
  std::uint32_t slot = kInvalidSlot;
  bool valid() const { return slot != kInvalidSlot; }
};

enum class MetricKind { kCounter, kHistogram };

struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;              // counters
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

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds — same name returns the same id) a metric.
  MetricId Counter(const std::string& name);
  MetricId Histogram(const std::string& name);

  /// Adds `delta` to a counter registered with this registry.
  void Add(MetricId id, std::uint64_t delta = 1);

  /// Records one observation in a histogram registered with this registry.
  void Observe(MetricId id, std::uint64_t value);

  /// Every metric, in registration order, as of one instant.
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
  struct Entry {
    std::string name;
    MetricKind kind;
    std::uint32_t first_slot;  // histograms span kHistogramBuckets slots
  };

  MetricId Register(const std::string& name, MetricKind kind,
                    std::uint32_t slots_needed) SATFR_EXCLUDES(mutex_);

  mutable mc::Mutex mutex_;
  std::vector<Entry> entries_ SATFR_GUARDED_BY(mutex_);
  std::vector<std::uint64_t> slots_ SATFR_GUARDED_BY(mutex_);
};

/// The process-wide registry all subsystems share. Always available;
/// snapshotting it is how `satfr --metrics-out` materializes a report.
MetricsRegistry& GlobalMetrics();

}  // namespace satfr::obs
