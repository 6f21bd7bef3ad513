#include "obs/metrics.h"

#include <cassert>
#include <cmath>
#include <utility>

namespace satfr::obs {

std::uint64_t MetricSnapshot::ApproxPercentile(double p) const {
  if (count == 0 || buckets.empty()) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      if (i == 0) return 0;
      if (i >= 64) return ~std::uint64_t{0};
      return (std::uint64_t{1} << i) - 1;
    }
  }
  // count > sum(buckets) would be a malformed snapshot; clamp to the top.
  return (std::uint64_t{1} << (buckets.size() - 1)) - 1;
}

const MetricSnapshot* MetricsSnapshot::Find(const std::string& name) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

JsonValue MetricsSnapshot::ToJson() const {
  JsonObject out;
  for (const MetricSnapshot& m : metrics) {
    switch (m.kind) {
      case MetricKind::kCounter:
        out.emplace_back(m.name, JsonValue(m.value));
        break;
      case MetricKind::kHistogram: {
        JsonArray buckets;
        buckets.reserve(m.buckets.size());
        for (const std::uint64_t b : m.buckets) buckets.emplace_back(b);
        JsonObject hist;
        hist.emplace_back("count", JsonValue(m.count));
        hist.emplace_back("buckets", JsonValue(std::move(buckets)));
        out.emplace_back(m.name, JsonValue(std::move(hist)));
        break;
      }
    }
  }
  return JsonValue(std::move(out));
}

MetricId MetricsRegistry::Register(const std::string& name, MetricKind kind,
                                   std::uint32_t slots_needed) {
  mc::MutexLock lock(mutex_);
  for (const Entry& e : entries_) {
    if (e.name == name) {
      // Same name, same kind: idempotent registration (several subsystems
      // may name the same counter). A kind clash returns invalid.
      if (e.kind != kind) return MetricId{};
      return MetricId{e.first_slot};
    }
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.resize(slots_.size() + slots_needed, 0);
  entries_.push_back(Entry{name, kind, slot});
  return MetricId{slot};
}

MetricId MetricsRegistry::Counter(const std::string& name) {
  return Register(name, MetricKind::kCounter, 1);
}

MetricId MetricsRegistry::Histogram(const std::string& name) {
  return Register(name, MetricKind::kHistogram, kHistogramBuckets);
}

void MetricsRegistry::Add(MetricId id, std::uint64_t delta) {
  if (!id.valid()) return;
  mc::MutexLock lock(mutex_);
  assert(id.slot < slots_.size());
  slots_[id.slot] += delta;
}

void MetricsRegistry::Observe(MetricId id, std::uint64_t value) {
  if (!id.valid()) return;
  mc::MutexLock lock(mutex_);
  assert(id.slot + kHistogramBuckets <= slots_.size());
  ++slots_[id.slot + BucketFor(value)];
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  mc::MutexLock lock(mutex_);
  for (const Entry& e : entries_) {
    MetricSnapshot m;
    m.name = e.name;
    m.kind = e.kind;
    if (e.kind == MetricKind::kHistogram) {
      const auto first = slots_.begin() + e.first_slot;
      m.buckets.assign(first, first + kHistogramBuckets);
      for (const std::uint64_t b : m.buckets) m.count += b;
    } else {
      m.value = slots_[e.first_slot];
    }
    snapshot.metrics.push_back(std::move(m));
  }
  return snapshot;
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dies
  return *registry;
}

}  // namespace satfr::obs
