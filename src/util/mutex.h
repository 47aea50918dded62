// Annotated mutex, scoped lock, and condition variable wrappers.
//
// std::mutex carries no Clang Thread Safety Analysis capability, so
// state it protects cannot be machine-checked. dc::Mutex is a zero-cost
// wrapper that is a capability; dc::MutexLock is the scoped acquisition
// the analysis tracks; dc::CondVar parks on a MutexLock. The concurrent
// subsystems (src/engine/thread_pool, src/obs/metrics, src/obs/trace)
// use these exclusively -- tools/lint/dclint.py rule `raw-mutex` rejects
// the raw std:: types there so new code cannot silently opt out of the
// analysis.
//
// Condition-variable caveat: the analysis does not model the
// release/reacquire inside a wait, which is fine -- the capability is
// held both at the call and at the return, exactly what guarded
// accesses around the wait need. Write waits as explicit
// `while (!predicate) cv.Wait(lock);` loops so the predicate's guarded
// reads are visible to the analysis in the enclosing function (a
// predicate lambda would be analyzed as a separate, lock-less function).
#ifndef DELTACLUS_UTIL_MUTEX_H_
#define DELTACLUS_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "src/util/thread_annotations.h"

namespace deltaclus::dc {

/// A std::mutex that is a Clang TSA capability. Lockable directly for
/// unusual protocols, but prefer MutexLock.
class DC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DC_ACQUIRE() { mu_.lock(); }
  void Unlock() DC_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// A std::shared_mutex that is a Clang TSA capability: any number of
/// shared (reader) holders, or one exclusive (writer) holder. Readers
/// only try-lock. The writer's Lock() spins instead of parking, and
/// sleeps between tries only once that runs long (a reader was
/// preempted, say); it never yields, because on a loaded virtual machine
/// a sched_yield can give the core away for hundreds of microseconds. It
/// suits the one protocol that needs it (the pipelined apply sweep,
/// src/core/action_applier.cc): readers hold it for one short scan and
/// skip it when it is held, so a writer waits a scan at most, and a
/// park/wake would cost more than that.
class DC_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() DC_ACQUIRE() {
    constexpr int kSpins = 4096;
    for (int spins = 0; !mu_.try_lock();) {
      if (++spins > kSpins) {
        std::this_thread::sleep_for(std::chrono::microseconds(1));
      }
    }
  }
  void Unlock() DC_RELEASE() { mu_.unlock(); }
  bool TryLockShared() DC_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }
  void UnlockShared() DC_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// Scoped lock over a dc::Mutex (the std::lock_guard / std::unique_lock
/// replacement the analysis understands). Holds for the full scope; no
/// early unlock, which keeps the capability state linear.
class DC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DC_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() DC_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable parking on a MutexLock. Spurious wakeups are
/// possible as with std::condition_variable: always wait in a predicate
/// loop (see the header comment for why the loop is written inline
/// rather than passed as a lambda).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`'s mutex and parks; reacquires before
  /// returning. The caller must re-test its predicate.
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace deltaclus::dc

#endif  // DELTACLUS_UTIL_MUTEX_H_
