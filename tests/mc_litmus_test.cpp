// Litmus suite for the concurrency model checker (src/mc) and the
// lock-free layers it guards: the Chase-Lev deque and the sharded metrics
// registry.
//
// Two kinds of tests live here:
//
//   * Checker-validation tests (#ifdef SATFR_MODEL_CHECK): known-bad
//     protocols the checker MUST catch (a racy counter, relaxed message
//     passing, relaxed store buffering, a lock-order deadlock) and
//     known-good ones it must NOT flag (mutex counter, release/acquire
//     message passing, seq_cst store buffering). These pin the memory
//     model from both sides — too strong and real bugs slip through, too
//     weak and every litmus below would false-positive.
//
//   * Property litmus tests on the real production structures: no cube
//     lost or popped twice, and metrics snapshot totals conserved. These
//     compile and run in BOTH build modes: under SATFR_MODEL_CHECK the
//     body is explored across interleavings; in a normal build mc::Check
//     degrades to a single real-thread run, so the suite doubles as a
//     smoke test and the shim's passthrough stays exercised.
//
// tests/mc_mutation_test.cpp is the adversarial counterpart: it rebuilds
// the deque with a deliberately weakened memory_order and asserts the
// exact litmus bodies used here start failing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cube/work_queue.h"
#include "mc/model_check.h"
#include "mc/shim.h"
#include "obs/metrics.h"

namespace satfr {
namespace {

#if defined(SATFR_MODEL_CHECK)

// ---------------------------------------------------------------------------
// Checker validation: known-bad protocols must be caught...
// ---------------------------------------------------------------------------

// Non-atomic-style counter (load; add; store, all relaxed): two increments
// can resolve to 1. The canonical lost-update race.
void RacyCounterBody() {
  auto x = std::make_shared<mc::Atomic<int>>(0);
  mc::Thread a([x] { x->store(x->load(std::memory_order_relaxed) + 1,
                              std::memory_order_relaxed); });
  mc::Thread b([x] { x->store(x->load(std::memory_order_relaxed) + 1,
                              std::memory_order_relaxed); });
  a.Join();
  b.Join();
  MC_CHECK(x->load(std::memory_order_relaxed) == 2, "lost update");
}

TEST(McCheckerValidation, CatchesRacyCounter) {
  mc::ModelCheckOptions opts;
  opts.max_exhaustive_schedules = 2000;
  opts.random_schedules = 0;
  const mc::ModelCheckResult res = mc::Check(RacyCounterBody, opts);
  ASSERT_FALSE(res.ok) << "checker missed the lost-update race";
  EXPECT_NE(res.failure.find("lost update"), std::string::npos) << res.failure;
  ASSERT_FALSE(res.failing_trail.empty());

  // The printed decision trail must replay to the identical failure.
  mc::ModelCheckOptions replay;
  replay.replay_trail = res.failing_trail;
  const mc::ModelCheckResult again = mc::Check(RacyCounterBody, replay);
  ASSERT_FALSE(again.ok) << "failing trail replayed clean";
  EXPECT_EQ(again.failure, res.failure);
  EXPECT_EQ(again.schedules_explored, 1u);
}

TEST(McCheckerValidation, RandomPhaseFailureReplaysFromSeed) {
  // Skip the exhaustive phase entirely so the failure is found by the
  // random walk and carries a seed.
  mc::ModelCheckOptions opts;
  opts.max_exhaustive_schedules = 0;
  opts.random_schedules = 500;
  opts.random_seed = 11;
  const mc::ModelCheckResult res = mc::Check(RacyCounterBody, opts);
  ASSERT_FALSE(res.ok) << "random walk missed the lost-update race";
  ASSERT_NE(res.failing_seed, 0u);

  mc::ModelCheckOptions replay;
  replay.replay_seed = res.failing_seed;
  const mc::ModelCheckResult again = mc::Check(RacyCounterBody, replay);
  ASSERT_FALSE(again.ok) << "failing seed replayed clean";
  EXPECT_EQ(again.failure, res.failure);
}

TEST(McCheckerValidation, CatchesRelaxedMessagePassing) {
  // data published relaxed, flag read relaxed: the reader may observe the
  // flag without the data.
  const mc::ModelCheckResult res = mc::Check([] {
    auto data = std::make_shared<mc::Atomic<int>>(0);
    auto flag = std::make_shared<mc::Atomic<int>>(0);
    mc::Thread writer([=] {
      data->store(42, std::memory_order_relaxed);
      flag->store(1, std::memory_order_relaxed);
    });
    mc::Thread reader([=] {
      if (flag->load(std::memory_order_relaxed) == 1) {
        MC_CHECK(data->load(std::memory_order_relaxed) == 42,
                 "flag observed without data");
      }
    });
    writer.Join();
    reader.Join();
  });
  ASSERT_FALSE(res.ok) << "checker missed the relaxed message-passing race";
  EXPECT_NE(res.failure.find("flag observed without data"), std::string::npos);
}

TEST(McCheckerValidation, CatchesRelaxedStoreBuffering) {
  // Classic SB: both threads store then load the other's location, all
  // relaxed — r1 == r2 == 0 is reachable (both loads stale).
  const mc::ModelCheckResult res = mc::Check([] {
    auto x = std::make_shared<mc::Atomic<int>>(0);
    auto y = std::make_shared<mc::Atomic<int>>(0);
    auto r1 = std::make_shared<int>(-1);
    auto r2 = std::make_shared<int>(-1);
    mc::Thread a([=] {
      x->store(1, std::memory_order_relaxed);
      *r1 = y->load(std::memory_order_relaxed);
    });
    mc::Thread b([=] {
      y->store(1, std::memory_order_relaxed);
      *r2 = x->load(std::memory_order_relaxed);
    });
    a.Join();
    b.Join();
    MC_CHECK(*r1 == 1 || *r2 == 1, "store buffering: both loads saw 0");
  });
  ASSERT_FALSE(res.ok) << "checker missed relaxed store buffering";
}

TEST(McCheckerValidation, CatchesLockOrderDeadlock) {
  const mc::ModelCheckResult res = mc::Check([] {
    auto m1 = std::make_shared<mc::Mutex>();
    auto m2 = std::make_shared<mc::Mutex>();
    mc::Thread a([=] {
      mc::MutexLock l1(*m1);
      mc::MutexLock l2(*m2);
    });
    mc::Thread b([=] {
      mc::MutexLock l2(*m2);
      mc::MutexLock l1(*m1);
    });
    a.Join();
    b.Join();
  });
  ASSERT_FALSE(res.ok) << "checker missed the AB/BA deadlock";
  EXPECT_NE(res.failure.find("deadlock"), std::string::npos) << res.failure;
}

// ---------------------------------------------------------------------------
// ...and known-good protocols must pass (the model must not be too weak).
// ---------------------------------------------------------------------------

TEST(McCheckerValidation, MutexCounterHolds) {
  mc::ModelCheckOptions opts;
  opts.max_exhaustive_schedules = 5000;
  opts.random_schedules = 100;
  const mc::ModelCheckResult res = mc::Check(
      [] {
        auto mu = std::make_shared<mc::Mutex>();
        auto count = std::make_shared<int>(0);
        mc::Thread a([=] {
          mc::MutexLock lock(*mu);
          ++*count;
        });
        mc::Thread b([=] {
          mc::MutexLock lock(*mu);
          ++*count;
        });
        a.Join();
        b.Join();
        MC_CHECK(*count == 2, "mutex-guarded increments lost");
      },
      opts);
  EXPECT_TRUE(res.ok) << res.FailureSummary();
  EXPECT_TRUE(res.exhaustive_complete);
}

TEST(McCheckerValidation, ReleaseAcquireMessagePassingHolds) {
  const mc::ModelCheckResult res = mc::Check([] {
    auto data = std::make_shared<mc::Atomic<int>>(0);
    auto flag = std::make_shared<mc::Atomic<int>>(0);
    mc::Thread writer([=] {
      data->store(42, std::memory_order_relaxed);
      flag->store(1, std::memory_order_release);
    });
    mc::Thread reader([=] {
      if (flag->load(std::memory_order_acquire) == 1) {
        MC_CHECK(data->load(std::memory_order_relaxed) == 42,
                 "acquire read the flag but not the data");
      }
    });
    writer.Join();
    reader.Join();
  });
  EXPECT_TRUE(res.ok) << res.FailureSummary();
  EXPECT_TRUE(res.exhaustive_complete);
}

TEST(McCheckerValidation, SeqCstStoreBufferingHolds) {
  // With seq_cst stores and loads the single total order forbids
  // r1 == r2 == 0 — exactly what the deque's owner/thief fences rely on.
  const mc::ModelCheckResult res = mc::Check([] {
    auto x = std::make_shared<mc::Atomic<int>>(0);
    auto y = std::make_shared<mc::Atomic<int>>(0);
    auto r1 = std::make_shared<int>(-1);
    auto r2 = std::make_shared<int>(-1);
    mc::Thread a([=] {
      x->store(1, std::memory_order_seq_cst);
      *r1 = y->load(std::memory_order_seq_cst);
    });
    mc::Thread b([=] {
      y->store(1, std::memory_order_seq_cst);
      *r2 = x->load(std::memory_order_seq_cst);
    });
    a.Join();
    b.Join();
    MC_CHECK(*r1 == 1 || *r2 == 1, "seq_cst store buffering violated");
  });
  EXPECT_TRUE(res.ok) << res.FailureSummary();
  EXPECT_TRUE(res.exhaustive_complete);
}

TEST(McCheckerValidation, SeqCstFenceStoreBufferingHolds) {
  // Same shape as PopBottom/Steal: relaxed accesses ordered only by
  // seq_cst fences between the store and the load.
  const mc::ModelCheckResult res = mc::Check([] {
    auto x = std::make_shared<mc::Atomic<int>>(0);
    auto y = std::make_shared<mc::Atomic<int>>(0);
    auto r1 = std::make_shared<int>(-1);
    auto r2 = std::make_shared<int>(-1);
    mc::Thread a([=] {
      x->store(1, std::memory_order_relaxed);
      mc::Fence(std::memory_order_seq_cst);
      *r1 = y->load(std::memory_order_relaxed);
    });
    mc::Thread b([=] {
      y->store(1, std::memory_order_relaxed);
      mc::Fence(std::memory_order_seq_cst);
      *r2 = x->load(std::memory_order_relaxed);
    });
    a.Join();
    b.Join();
    MC_CHECK(*r1 == 1 || *r2 == 1, "fence-ordered store buffering violated");
  });
  EXPECT_TRUE(res.ok) << res.FailureSummary();
  EXPECT_TRUE(res.exhaustive_complete);
}

#endif  // SATFR_MODEL_CHECK

// ---------------------------------------------------------------------------
// Chase-Lev deque: no cube lost, no cube popped twice.
// ---------------------------------------------------------------------------

// Root pushes `items` before spawning (thread creation gives both workers
// happens-before over the pushes), then the owner pops until empty while
// `num_thieves` thieves steal. Every item must surface exactly once.
void DequeExactlyOnceBody(int num_thieves) {
  constexpr std::int64_t kItems[] = {101, 102, 103};
  constexpr int kCount = 3;
  auto dq = std::make_shared<cube::WorkStealingDeque>(4);
  for (const std::int64_t item : kItems) dq->PushBottom(item);

  auto taken = std::make_shared<std::vector<std::vector<std::int64_t>>>(
      static_cast<std::size_t>(1 + num_thieves));
  mc::Thread owner([dq, taken] {
    std::int64_t item;
    while (dq->PopBottom(&item)) (*taken)[0].push_back(item);
  });
  std::vector<std::unique_ptr<mc::Thread>> thieves;
  for (int t = 0; t < num_thieves; ++t) {
    thieves.push_back(std::make_unique<mc::Thread>([dq, taken, t] {
      std::int64_t item;
      for (;;) {
        if (dq->Steal(&item)) {
          (*taken)[static_cast<std::size_t>(1 + t)].push_back(item);
          continue;
        }
        // A failed steal is either empty or a lost race; only stop once
        // the deque also looks empty. Empty() is racy, but a stale verdict
        // here costs only another loop round, never an item.
        if (dq->Empty()) break;
        mc::Yield();
      }
    }));
  }
  owner.Join();
  for (auto& thief : thieves) thief->Join();

  std::vector<std::int64_t> all;
  for (const auto& per_thread : *taken) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  MC_CHECK(all.size() == kCount, "cube lost or popped twice");
  for (int i = 0; i < kCount; ++i) {
    MC_CHECK(all[static_cast<std::size_t>(i)] == kItems[i],
             "wrong cube multiset");
  }
}

TEST(McDequeLitmus, ExactlyOnceOwnerVsThief) {
  mc::ModelCheckOptions opts;
  opts.max_exhaustive_schedules = 4000;
  opts.random_schedules = 300;
  const mc::ModelCheckResult res =
      mc::Check([] { DequeExactlyOnceBody(1); }, opts);
  EXPECT_TRUE(res.ok) << res.FailureSummary();
}

TEST(McDequeLitmus, ExactlyOnceTwoThieves) {
  mc::ModelCheckOptions opts;
  opts.max_preemptions = 1;  // thief-vs-thief CAS races still reachable
  opts.max_stale_reads = 2;
  opts.max_exhaustive_schedules = 4000;
  opts.random_schedules = 200;
  const mc::ModelCheckResult res =
      mc::Check([] { DequeExactlyOnceBody(2); }, opts);
  EXPECT_TRUE(res.ok) << res.FailureSummary();
}

// Healthy-build counterpart of the steal-bottom mutation body: the owner
// pushes during the run, so the thief's acquire load of bottom (not the
// spawn) is what publishes the slot writes. Must hold here; must break in
// tests/mc_mutation_test.cpp when that load is weakened.
TEST(McDequeLitmus, ExactlyOnceOwnerPushesDuringRun) {
  mc::ModelCheckOptions opts;
  opts.max_exhaustive_schedules = 4000;
  opts.random_schedules = 300;
  const mc::ModelCheckResult res = mc::Check(
      [] {
        auto dq = std::make_shared<cube::WorkStealingDeque>(4);
        auto taken = std::make_shared<std::vector<std::vector<std::int64_t>>>(
            std::size_t{2});
        mc::Thread owner([dq, taken] {
          dq->PushBottom(42);
          dq->PushBottom(43);
          std::int64_t item;
          while (dq->PopBottom(&item)) (*taken)[0].push_back(item);
        });
        mc::Thread thief([dq, taken] {
          std::int64_t item;
          for (;;) {
            if (dq->Steal(&item)) {
              (*taken)[1].push_back(item);
              continue;
            }
            if (dq->Empty()) break;
            mc::Yield();
          }
        });
        owner.Join();
        thief.Join();
        std::vector<std::int64_t> all;
        for (const auto& per_thread : *taken) {
          all.insert(all.end(), per_thread.begin(), per_thread.end());
        }
        std::sort(all.begin(), all.end());
        MC_CHECK(all.size() == 2, "cube lost or popped twice");
        MC_CHECK(all[0] == 42 && all[1] == 43, "wrong cube multiset");
      },
      opts);
  EXPECT_TRUE(res.ok) << res.FailureSummary();
}

// ---------------------------------------------------------------------------
// Metrics registry: snapshot totals conserved across sharded writers.
// ---------------------------------------------------------------------------

TEST(McMetricsLitmus, SnapshotTotalsConserved) {
  mc::ModelCheckOptions opts;
  // Shard creation stores through every slot, so schedules here are long;
  // keep the enumeration tight and lean on the random walk.
  opts.max_preemptions = 1;
  opts.max_stale_reads = 1;
  opts.max_exhaustive_schedules = 300;
  opts.random_schedules = 60;
  const mc::ModelCheckResult res = mc::Check(
      [] {
        auto reg = std::make_shared<obs::MetricsRegistry>();
        const obs::MetricId count = reg->Counter("litmus.count");
        const obs::MetricId hist = reg->Histogram("litmus.hist");
        const obs::MetricId gauge = reg->Gauge("litmus.gauge");
        mc::Thread a([=] {
          reg->Add(count, 2);
          reg->Observe(hist, 3);
          reg->SetGauge(gauge, 5);
        });
        mc::Thread b([=] {
          reg->Add(count, 3);
          reg->Observe(hist, 100);
          reg->SetGauge(gauge, 7);
        });
        a.Join();
        b.Join();

        const obs::MetricsSnapshot snap = reg->Snapshot();
        const obs::MetricSnapshot* c = snap.Find("litmus.count");
        MC_CHECK(c != nullptr && c->value == 5, "counter adds lost");
        const obs::MetricSnapshot* h = snap.Find("litmus.hist");
        MC_CHECK(h != nullptr && h->count == 2, "histogram observation lost");
        MC_CHECK(h->buckets[obs::MetricsRegistry::BucketFor(3)] == 1 &&
                     h->buckets[obs::MetricsRegistry::BucketFor(100)] == 1,
                 "histogram bucket misfiled");
        const obs::MetricSnapshot* g = snap.Find("litmus.gauge");
        MC_CHECK(g != nullptr && (g->gauge == 5 || g->gauge == 7),
                 "gauge is not last-write-wins");
      },
      opts);
  EXPECT_TRUE(res.ok) << res.FailureSummary();
}

// ---------------------------------------------------------------------------
// Passthrough contract: outside SATFR_MODEL_CHECK builds Check still runs
// the body once and reports MC_CHECK failures instead of aborting.
// ---------------------------------------------------------------------------

TEST(McPassthrough, CheckReportsBodyFailure) {
  const mc::ModelCheckResult res =
      mc::Check([] { MC_CHECK(1 + 1 == 3, "arithmetic is broken"); });
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("arithmetic is broken"), std::string::npos);
}

TEST(McPassthrough, CheckPassesCleanBody) {
  const mc::ModelCheckResult res = mc::Check([] {
    mc::Atomic<int> x{0};
    mc::Thread t([&] { x.store(1, std::memory_order_release); });
    t.Join();
    MC_CHECK(x.load(std::memory_order_acquire) == 1, "join lost the store");
  });
  EXPECT_TRUE(res.ok) << res.FailureSummary();
}

}  // namespace
}  // namespace satfr
