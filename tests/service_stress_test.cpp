// Thread-sanitizer stress for the service concurrency surfaces: the
// sharded LRU cache under concurrent lookup/insert/erase with bounds tight
// enough to force constant eviction, and the scheduler under concurrent
// submit/cancel churn. Invariants checked are conservation laws (stats
// balance, exactly-once execution) — the interesting failures here are the
// ones TSan reports, so bodies stay small and hot.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "graph/graph.h"
#include "service/cache.h"
#include "service/routing_service.h"
#include "service/scheduler.h"

namespace satfr::service {
namespace {

CacheKey KeyFor(int i) {
  return CacheKey{nullptr, static_cast<std::uint64_t>(i) * 7919u, i % 5, "e",
                  "s", ""};
}

TEST(ServiceStress, ShardedCacheSurvivesConcurrentChurn) {
  // 2 shards x 4 entries with a byte bound that also bites: every inserter
  // is constantly evicting what another thread is looking up.
  CacheTierOptions options{/*num_shards=*/2, /*max_entries_per_shard=*/4,
                           /*max_bytes_per_shard=*/64};
  ShardedLruCache<int> cache(options);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 3000;
  constexpr int kKeys = 24;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = (i * (t + 1)) % kKeys;
        switch ((i + t) % 4) {
          case 0:
            cache.Insert(KeyFor(k), std::make_shared<const int>(k), 16);
            break;
          case 1:
          case 2: {
            const std::shared_ptr<const int> v = cache.Lookup(KeyFor(k));
            // Eviction must never invalidate a handed-out value.
            if (v != nullptr) EXPECT_EQ(*v, k);
            break;
          }
          case 3:
            cache.Erase(KeyFor(k));
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const CacheTierStats stats = cache.stats();
  EXPECT_LE(stats.entries, 8u);
  EXPECT_LE(stats.bytes, 128u);
  EXPECT_LE(stats.hits, stats.lookups);
  EXPECT_LE(stats.evictions, stats.insertions);
}

TEST(ServiceStress, SchedulerSubmitCancelChurnConservesJobs) {
  SchedulerOptions options;
  options.num_workers = 3;
  JobScheduler scheduler(options);
  constexpr int kSubmitters = 3;
  constexpr int kJobsPerSubmitter = 400;

  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> cancel_wins{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kJobsPerSubmitter; ++i) {
        const auto handle = scheduler.Submit(
            [&executed](const mc::Atomic<bool>&) {
              executed.fetch_add(1, std::memory_order_relaxed);
            },
            /*priority=*/i % 3);
        // Every third job gets a racing cancel: either it never runs (the
        // cancel won) or it runs exactly once.
        if (i % 3 == 0 && scheduler.Cancel(handle)) {
          cancel_wins.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  scheduler.WaitIdle();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kSubmitters) * kJobsPerSubmitter;
  EXPECT_EQ(executed.load() + cancel_wins.load(), kTotal);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.completed, executed.load());
  EXPECT_EQ(stats.cancelled, cancel_wins.load());
}

TEST(ServiceStress, ServiceFrontDoorUnderConcurrentClients) {
  // Tiny caches force the verdict tier to evict while other clients hit
  // it; the request mix repeats enough for real cache traffic.
  ServiceOptions options;
  options.scheduler.num_workers = 2;
  options.verdict_cache = CacheTierOptions{2, 2, 1u << 20};
  RoutingService svc(options);

  graph::Graph triangle(3);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  const auto g = std::make_shared<const graph::Graph>(triangle);

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&svc, &g, &failures, t] {
      for (int i = 0; i < 40; ++i) {
        const int width = 2 + ((i + t) % 2);
        RouteRequest request;
        request.label = "stress";
        request.graph = g;
        request.width = width;
        request.encoding = "muldirect";
        request.symmetry = "none";
        const auto ticket = svc.Submit(std::move(request));
        if (i % 5 == 0) svc.Cancel(ticket);
        const Response& r = svc.Wait(ticket);
        if (r.cancelled) continue;
        const sat::SolveResult expected = width >= 3
                                              ? sat::SolveResult::kSat
                                              : sat::SolveResult::kUnsat;
        if (!r.ok || r.status != expected) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  svc.Drain();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc.stats().requests, 120u);
}

}  // namespace
}  // namespace satfr::service
