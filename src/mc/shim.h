// Annotated mutex for the threaded layers.
//
// mc::Mutex is std::mutex with clang's capability attributes
// (src/mc/annotations.h), and mc::MutexLock is the matching scoped lock.
// libstdc++'s std::mutex and std::lock_guard carry no annotations, so
// mutex-guarded state anywhere in the tree is declared SATFR_GUARDED_BY(an
// mc::Mutex) and locked through mc::MutexLock; that is what lets the
// `thread-safety` CI job prove locking discipline statically. Atomics are
// spelled std::atomic directly.
#ifndef SATFR_MC_SHIM_H_
#define SATFR_MC_SHIM_H_

#include <atomic>
#include <mutex>

#include "mc/annotations.h"

namespace satfr::mc {

// Kept only because perfbench/corpus.cpp spells its stop flag with this
// alias (Atomic<bool> in satfr::mc) and reaches it through sat/solver.h.
// The benchmark change that next touches perfbench/ spells it
// std::atomic<bool> and removes this line.
template <typename T> using Atomic = std::atomic<T>;

class SATFR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SATFR_ACQUIRE() { mutex_.lock(); }
  void unlock() SATFR_RELEASE() { mutex_.unlock(); }
  bool try_lock() SATFR_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  std::mutex mutex_;
};

/// Annotated lock_guard replacement; the only way annotated code should
/// take an mc::Mutex.
class SATFR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) SATFR_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() SATFR_RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace satfr::mc

#endif  // SATFR_MC_SHIM_H_
