// TSan stress for the metrics registry: many writer threads hammer
// counters and histograms while a reader thread snapshots concurrently. The
// point of this binary is running it under ThreadSanitizer in CI, where any
// unguarded access to the slot table is a hard failure;
// SnapshotTotalsConserved also checks that a snapshot taken after the
// writers join accounts for every update exactly.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace satfr::obs {
namespace {

TEST(MetricsStressTest, ConcurrentUpdatesWithSnapshots) {
  MetricsRegistry registry;
  constexpr int kWriters = 8;
  constexpr int kIterations = 20000;
  const MetricId counter = registry.Counter("stress.counter");
  const MetricId histogram = registry.Histogram("stress.histogram");

  std::atomic<bool> stop{false};
  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      // Monotone sanity only: a mid-flight snapshot sees partial sums.
      if (const MetricSnapshot* h = snapshot.Find("stress.histogram")) {
        std::uint64_t total = 0;
        for (const std::uint64_t b : h->buckets) total += b;
        EXPECT_EQ(total, h->count);
      }
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&registry, counter, histogram, t] {
      for (int i = 0; i < kIterations; ++i) {
        registry.Add(counter);
        registry.Observe(histogram,
                         static_cast<std::uint64_t>(i) << (t % 8));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricSnapshot* c = snapshot.Find("stress.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, static_cast<std::uint64_t>(kWriters) * kIterations);
  const MetricSnapshot* h = snapshot.Find("stress.histogram");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kWriters) * kIterations);
}

// The value thread `t` observes on iteration `i`: it sweeps every log2
// bucket, including 0 and the clamp bucket past 2^32.
std::uint64_t ObservedValue(int t, int i) {
  const int shift = (i + t) % 40;
  if (i % 7 == 0) return 0;
  return (std::uint64_t{1} << shift) + static_cast<std::uint64_t>(t);
}

TEST(MetricsStressTest, SnapshotTotalsConserved) {
  // After the writers join, a snapshot must account for every update
  // exactly: no counter add lost, and no histogram observation lost or
  // filed under the wrong bucket.
  MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kIterations = 5000;
  const MetricId counter = registry.Counter("conserve.count");
  const MetricId histogram = registry.Histogram("conserve.hist");
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&registry, counter, histogram, t] {
      for (int i = 0; i < kIterations; ++i) {
        registry.Add(counter, static_cast<std::uint64_t>(t + 1));
        registry.Observe(histogram, ObservedValue(t, i));
      }
    });
  }
  for (std::thread& w : writers) w.join();

  std::uint64_t expected_total = 0;
  std::array<std::uint64_t, MetricsRegistry::kHistogramBuckets>
      expected_buckets{};
  for (int t = 0; t < kWriters; ++t) {
    expected_total += static_cast<std::uint64_t>(t + 1) * kIterations;
    for (int i = 0; i < kIterations; ++i) {
      ++expected_buckets[MetricsRegistry::BucketFor(ObservedValue(t, i))];
    }
  }

  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricSnapshot* c = snapshot.Find("conserve.count");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, expected_total);
  const MetricSnapshot* h = snapshot.Find("conserve.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kWriters) * kIterations);
  ASSERT_EQ(h->buckets.size(), expected_buckets.size());
  for (std::size_t b = 0; b < expected_buckets.size(); ++b) {
    EXPECT_EQ(h->buckets[b], expected_buckets[b]) << "bucket " << b;
  }
}

TEST(MetricsStressTest, ConcurrentRegistrationAndUpdates) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Everyone registers the same names (idempotent path under
      // contention) plus one private name, then updates both.
      const MetricId shared = registry.Counter("reg.shared");
      const MetricId mine =
          registry.Counter("reg.private." + std::to_string(t));
      for (int i = 0; i < 5000; ++i) {
        registry.Add(shared);
        registry.Add(mine);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricSnapshot* shared = snapshot.Find("reg.shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->value, static_cast<std::uint64_t>(kThreads) * 5000);
  for (int t = 0; t < kThreads; ++t) {
    const MetricSnapshot* mine =
        snapshot.Find("reg.private." + std::to_string(t));
    ASSERT_NE(mine, nullptr);
    EXPECT_EQ(mine->value, 5000u);
  }
}

TEST(MetricsStressTest, GlobalRegistryConcurrentAccess) {
  MetricsRegistry& global = GlobalMetrics();
  const MetricId counter = global.Counter("stress.global");
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&global, counter] {
      for (int i = 0; i < 10000; ++i) global.Add(counter);
    });
  }
  for (std::thread& t : threads) t.join();
  const MetricsSnapshot snapshot = global.Snapshot();
  const MetricSnapshot* c = snapshot.Find("stress.global");
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->value, static_cast<std::uint64_t>(kThreads) * 10000);
}

}  // namespace
}  // namespace satfr::obs
