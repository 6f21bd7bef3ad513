#include "service/scheduler.h"

#include <algorithm>
#include <utility>

namespace satfr::service {
namespace {

std::size_t WorkerCount(int requested) {
  const int workers =
      requested > 0 ? requested
                    : static_cast<int>(std::thread::hardware_concurrency());
  return static_cast<std::size_t>(std::max(workers, 1));
}

}  // namespace

JobScheduler::JobScheduler(const SchedulerOptions& options)
    : stop_(WorkerCount(options.num_workers)),
      running_(stop_.size(), kIdle) {
  threads_.reserve(stop_.size());
  for (std::size_t w = 0; w < stop_.size(); ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

JobScheduler::~JobScheduler() {
  std::map<QueueKey, JobFn> dropped;  // destroyed after the lock is released
  {
    mc::MutexLock lock(mutex_);
    shutdown_ = true;
    cancelled_ += queue_.size();
    dropped.swap(queue_);
    for (std::size_t w = 0; w < running_.size(); ++w) {
      if (running_[w] != kIdle) stop_[w].store(true, std::memory_order_relaxed);
    }
    work_cv_.notify_all();
    if (Idle()) idle_cv_.notify_all();
  }
  for (std::thread& thread : threads_) thread.join();
}

JobScheduler::Handle JobScheduler::Submit(JobFn fn, int priority) {
  mc::MutexLock lock(mutex_);
  const std::uint64_t id = next_id_++;
  queue_.emplace(QueueKey{priority, id}, std::move(fn));
  work_cv_.notify_one();
  return Handle{id};
}

bool JobScheduler::Cancel(Handle handle) {
  JobFn dropped;  // destroyed after the lock is released
  mc::MutexLock lock(mutex_);
  if (handle.id >= next_id_) return false;
  const auto queued =
      std::find_if(queue_.begin(), queue_.end(), [&](const auto& entry) {
        return entry.first.id == handle.id;
      });
  if (queued != queue_.end()) {
    dropped = std::move(queued->second);
    queue_.erase(queued);
    ++cancelled_;
    if (Idle()) idle_cv_.notify_all();
    return true;
  }
  for (std::size_t w = 0; w < running_.size(); ++w) {
    if (running_[w] == handle.id) {
      stop_[w].store(true, std::memory_order_relaxed);
    }
  }
  return false;
}

void JobScheduler::WaitIdle() {
  mc::MutexLock lock(mutex_);
  while (!Idle()) idle_cv_.wait(mutex_);
}

SchedulerStats JobScheduler::stats() const {
  mc::MutexLock lock(mutex_);
  SchedulerStats stats;
  stats.submitted = next_id_;
  stats.completed = completed_;
  stats.cancelled = cancelled_;
  return stats;
}

bool JobScheduler::Idle() const {
  return queue_.empty() &&
         std::all_of(running_.begin(), running_.end(),
                     [](std::uint64_t id) { return id == kIdle; });
}

void JobScheduler::WorkerLoop(std::size_t worker) {
  for (;;) {
    JobFn fn;
    {
      mc::MutexLock lock(mutex_);
      while (queue_.empty() && !shutdown_) work_cv_.wait(mutex_);
      if (queue_.empty()) return;  // shut down
      const auto first = queue_.begin();
      running_[worker] = first->first.id;
      fn = std::move(first->second);
      queue_.erase(first);
      stop_[worker].store(false, std::memory_order_relaxed);
    }
    fn(stop_[worker]);
    fn = nullptr;  // release captured payload (graphs, callbacks) early
    mc::MutexLock lock(mutex_);
    running_[worker] = kIdle;
    ++completed_;
    if (Idle()) idle_cv_.notify_all();
  }
}

}  // namespace satfr::service
