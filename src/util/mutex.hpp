// Capability-annotated synchronization primitives (util/annotations.hpp).
//
// std::mutex carries no clang capability attribute under libstdc++, so locks
// held through the raw std types are invisible to -Wthread-safety. These
// wrappers are the repo's locking vocabulary: same semantics and cost as the
// std types they delegate to (every method is a forwarding inline), plus the
// attributes that let the analysis prove every DQN_GUARDED_BY member is only
// touched under its mutex. First-party code uses these instead of
// std::mutex / std::lock_guard / std::unique_lock / std::condition_variable;
// scripts/lint.sh and the CI static-analysis job keep it that way.
//
//   class cache {
//     ...
//     mutable util::mutex mutex_;
//     std::map<key, value> entries_ DQN_GUARDED_BY(mutex_);
//   };
//   const util::lock_guard lock{mutex_};   // scoped acquire, like std::
//
// For condition waits, pair util::unique_lock with util::condition_variable:
// wait() reacquires before returning, so from the analysis's perspective the
// capability is held for the whole lock scope — guarded members may be read
// directly in the wait loop.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/annotations.hpp"

namespace dqn::util {

// Exclusive mutex: a std::mutex declared as a capability.
class DQN_CAPABILITY("mutex") mutex {
 public:
  mutex() = default;
  mutex(const mutex&) = delete;
  mutex& operator=(const mutex&) = delete;

  void lock() DQN_ACQUIRE() { m_.lock(); }
  void unlock() DQN_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() DQN_TRY_ACQUIRE(true) { return m_.try_lock(); }

  // The wrapped std::mutex, for interop with std APIs that need the native
  // type (util::unique_lock uses it for condition_variable waits). Calls on
  // the native object bypass the analysis — lock through the wrapper.
  [[nodiscard]] std::mutex& native() noexcept { return m_; }

 private:
  std::mutex m_;
};

// Scoped exclusive lock: acquires on construction, releases on destruction
// (the std::lock_guard shape, visible to the analysis).
class DQN_SCOPED_CAPABILITY lock_guard {
 public:
  explicit lock_guard(mutex& m) DQN_ACQUIRE(m) : mutex_{m} { mutex_.lock(); }
  ~lock_guard() DQN_RELEASE() { mutex_.unlock(); }

  lock_guard(const lock_guard&) = delete;
  lock_guard& operator=(const lock_guard&) = delete;

 private:
  mutex& mutex_;
};

// Scoped lock over the native mutex, for condition-variable waits. The
// capability is considered held for the whole scope: condition_variable::wait
// releases and reacquires internally, which is sound because control only
// returns to the caller with the lock re-held.
class DQN_SCOPED_CAPABILITY unique_lock {
 public:
  explicit unique_lock(mutex& m) DQN_ACQUIRE(m) : lock_{m.native()} {}
  ~unique_lock() DQN_RELEASE() {}

  unique_lock(const unique_lock&) = delete;
  unique_lock& operator=(const unique_lock&) = delete;

  [[nodiscard]] std::unique_lock<std::mutex>& native() noexcept {
    return lock_;
  }

 private:
  std::unique_lock<std::mutex> lock_;
};

// Condition variable over util::mutex. wait() returns with the lock re-held,
// so callers test their predicate on guarded members directly:
//
//   util::unique_lock lock{mutex_};
//   while (!ready_) cv_.wait(lock);   // ready_ is DQN_GUARDED_BY(mutex_)
class condition_variable {
 public:
  condition_variable() = default;
  condition_variable(const condition_variable&) = delete;
  condition_variable& operator=(const condition_variable&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(unique_lock& lock) { cv_.wait(lock.native()); }

 private:
  std::condition_variable cv_;
};

}  // namespace dqn::util
