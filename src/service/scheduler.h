// Thread-pool job scheduler for the routing service (DESIGN.md §15).
//
// N worker threads serve one priority queue guarded by one mutex: the
// highest priority runs first, and equal priorities run in submission
// order. Every state change happens under that mutex and every condition
// variable is notified under it, so no wake-up is lost and nobody polls.
//
// Cancellation is decided under the same mutex. A job still queued is
// removed and never runs; a job already running has its stop flag set —
// the `mc::Atomic<bool>` the body is handed, which routing jobs wire into
// `DetailedRouteOptions::stop` so an in-flight SAT search aborts at its
// next restart check.
#ifndef SATFR_SERVICE_SCHEDULER_H_
#define SATFR_SERVICE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "mc/annotations.h"
#include "mc/shim.h"

namespace satfr::service {

struct SchedulerOptions {
  /// Worker thread count; <= 0 means std::thread::hardware_concurrency()
  /// (minimum 1).
  int num_workers = 0;
};

struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;  // cancelled before running
  /// Always 0: workers share one queue, so no job is ever stolen. The field
  /// stays only because perfbench's service_mix still reads it; the
  /// benchmark change of ROADMAP item 1 removes that last reader, and this
  /// field with it.
  std::uint64_t steals = 0;
};

class JobScheduler {
 public:
  /// A job body. The flag is the job's stop signal, false at start;
  /// long-running bodies should poll it (routing jobs pass it straight to
  /// the solver as the stop atomic).
  using JobFn = std::function<void(const mc::Atomic<bool>& stop)>;

  struct Handle {
    std::uint64_t id = ~std::uint64_t{0};  // default: no job
  };

  explicit JobScheduler(const SchedulerOptions& options = {});
  /// Cancels every job still queued, sets the stop flag of every running
  /// one, and joins the workers once those return.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues `fn`. Higher `priority` runs first; equal priorities run in
  /// submission order.
  Handle Submit(JobFn fn, int priority = 0);

  /// True if the job was still queued: it is removed and will never run.
  /// False once it started (or finished); a running job's stop flag is
  /// set, so a cooperative body stops early and is reported completed.
  bool Cancel(Handle handle);

  /// Blocks until every job submitted so far has completed or been
  /// cancelled.
  void WaitIdle();

  int num_workers() const { return static_cast<int>(threads_.size()); }
  SchedulerStats stats() const;

 private:
  /// Queue order: higher priority first, then lower (earlier) id.
  struct QueueKey {
    int priority = 0;
    std::uint64_t id = 0;
    bool operator<(const QueueKey& other) const {
      return priority != other.priority ? priority > other.priority
                                        : id < other.id;
    }
  };

  /// Marks `running_` entries of idle workers.
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  void WorkerLoop(std::size_t worker);
  bool Idle() const SATFR_REQUIRES(mutex_);

  mutable mc::Mutex mutex_;
  std::condition_variable_any work_cv_;  // queue non-empty, or shutdown
  std::condition_variable_any idle_cv_;  // queue empty and no job running

  std::map<QueueKey, JobFn> queue_ SATFR_GUARDED_BY(mutex_);
  // Per worker: the stop flag handed to its current job. Reset under
  // mutex_ at pickup, raised under mutex_ by Cancel and shutdown.
  std::vector<mc::Atomic<bool>> stop_;
  // Per worker: the id of the job it runs, or kIdle.
  std::vector<std::uint64_t> running_ SATFR_GUARDED_BY(mutex_);
  std::uint64_t next_id_ SATFR_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ SATFR_GUARDED_BY(mutex_) = 0;
  std::uint64_t cancelled_ SATFR_GUARDED_BY(mutex_) = 0;
  bool shutdown_ SATFR_GUARDED_BY(mutex_) = false;

  std::vector<std::thread> threads_;
};

}  // namespace satfr::service

#endif  // SATFR_SERVICE_SCHEDULER_H_
