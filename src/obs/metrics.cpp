#include "obs/metrics.h"

#include <utility>

namespace satfr::obs {

namespace {

std::uint64_t NextRegistryId() {
  static std::atomic<std::uint64_t> next{1};
  // relaxed: the id only needs to be unique; it orders nothing.
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::uint64_t MetricSnapshot::ApproxPercentile(double p) const {
  if (count == 0 || buckets.empty()) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(p * static_cast<double>(count) + 0.5);
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
      case MetricKind::kGauge:
        out.emplace_back(m.name, JsonValue(m.gauge));
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

MetricsRegistry::MetricsRegistry() : id_(NextRegistryId()) {}

MetricsRegistry::~MetricsRegistry() = default;

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
  // A gauge already owns this name: aliasing it would emit the key twice
  // in the snapshot JSON.
  for (const std::string& gauge : gauge_names_) {
    if (gauge == name) return MetricId{};
  }
  if (next_slot_ + slots_needed > kShardSlots) return MetricId{};
  const std::uint32_t slot = next_slot_;
  next_slot_ += slots_needed;
  entries_.push_back(Entry{name, kind, slot});
  return MetricId{slot};
}

MetricId MetricsRegistry::Counter(const std::string& name) {
  return Register(name, MetricKind::kCounter, 1);
}

MetricId MetricsRegistry::Histogram(const std::string& name) {
  return Register(name, MetricKind::kHistogram, kHistogramBuckets);
}

MetricId MetricsRegistry::Gauge(const std::string& name) {
  mc::MutexLock lock(mutex_);
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    if (gauge_names_[i] == name) {
      return MetricId{static_cast<std::uint32_t>(i) | MetricId::kGaugeBit};
    }
  }
  // Kind clash with a counter/histogram of the same name: invalid, same as
  // Register's check in the other direction.
  for (const Entry& e : entries_) {
    if (e.name == name) return MetricId{};
  }
  gauge_names_.push_back(name);
  gauges_.emplace_back(0);
  return MetricId{static_cast<std::uint32_t>(gauge_names_.size() - 1) |
                  MetricId::kGaugeBit};
}

MetricsRegistry::Shard* MetricsRegistry::ShardForThisThread() {
  struct Cached {
    std::uint64_t registry_id;
    Shard* shard;
  };
  // A thread touches few registries (the global one, plus per-test ones);
  // linear scan over a short vector beats any map. Registry ids are never
  // reused, so an entry for a destroyed registry simply never matches
  // again. FIFO-capped so pathological create/destroy loops cannot grow it
  // without bound — evicting a live entry only costs one extra shard.
  thread_local std::vector<Cached> cache;
  for (const Cached& c : cache) {
    if (c.registry_id == id_) return c.shard;
  }
  Shard* shard = nullptr;
  {
    mc::MutexLock lock(mutex_);
    shards_.push_back(std::make_unique<Shard>());
    shard = shards_.back().get();
  }
  if (cache.size() >= 16) cache.erase(cache.begin());
  cache.push_back(Cached{id_, shard});
  return shard;
}

void MetricsRegistry::Add(MetricId id, std::uint64_t delta) {
  if (!id.valid() || (id.slot & MetricId::kGaugeBit) != 0) return;
  // relaxed: the slot is this thread's private tally; readers fold it at
  // quiescent points (Snapshot after join, or as a statistical reading).
  ShardForThisThread()->slots[id.slot].fetch_add(delta,
                                                 std::memory_order_relaxed);
}

void MetricsRegistry::Observe(MetricId id, std::uint64_t value) {
  if (!id.valid() || (id.slot & MetricId::kGaugeBit) != 0) return;
  const std::uint32_t slot = id.slot + BucketFor(value);
  // relaxed: same single-writer tally argument as Add.
  ShardForThisThread()->slots[slot].fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::SetGauge(MetricId id, std::int64_t value) {
  if (!id.valid() || (id.slot & MetricId::kGaugeBit) == 0) return;
  const std::uint32_t index = id.slot & ~MetricId::kGaugeBit;
  mc::MutexLock lock(mutex_);
  if (index < gauges_.size()) {
    // relaxed: the mutex already orders racing setters (last unlock wins);
    // lock-free snapshot readers only need *a* recent level, not ordering.
    gauges_[index].store(value, std::memory_order_relaxed);
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  // All loads below are relaxed: a snapshot is a statistical reading, not
  // a synchronization point. Exactness is only promised at quiescent
  // points (writers joined), where happens-before already forces fresh
  // values — verified by the McMetricsLitmus conservation litmus.
  mc::MutexLock lock(mutex_);
  for (const Entry& e : entries_) {
    MetricSnapshot m;
    m.name = e.name;
    m.kind = e.kind;
    if (e.kind == MetricKind::kHistogram) {
      m.buckets.assign(kHistogramBuckets, 0);
      for (const auto& shard : shards_) {
        for (std::uint32_t b = 0; b < kHistogramBuckets; ++b) {
          m.buckets[b] += shard->slots[e.first_slot + b].load(
              std::memory_order_relaxed);
        }
      }
      for (const std::uint64_t b : m.buckets) m.count += b;
    } else {
      for (const auto& shard : shards_) {
        m.value +=
            shard->slots[e.first_slot].load(std::memory_order_relaxed);
      }
    }
    snapshot.metrics.push_back(std::move(m));
  }
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    MetricSnapshot m;
    m.name = gauge_names_[i];
    m.kind = MetricKind::kGauge;
    m.gauge = gauges_[i].load(std::memory_order_relaxed);
    snapshot.metrics.push_back(std::move(m));
  }
  return snapshot;
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dies
  return *registry;
}

}  // namespace satfr::obs
