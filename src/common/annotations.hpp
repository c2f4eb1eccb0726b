#pragma once

#include <condition_variable>
#include <mutex>

/// \file annotations.hpp
/// Clang thread-safety annotations (no-ops elsewhere) and the annotated
/// locking vocabulary the runtime uses.
///
/// The concurrency invariants of the thread pool — which fields a mutex
/// guards, which functions require it held — used to live only in
/// comments. These macros turn them into declarations clang's
/// -Wthread-safety analysis can check at compile time: a CI job builds the
/// tree with clang and -Werror=thread-safety, so "forgot to take the lock"
/// and "read a guarded field after unlocking" become build failures instead
/// of TSan lottery tickets (docs/static-analysis.md). Under gcc (the default
/// toolchain here) every macro expands to nothing and the wrappers compile
/// down to the std primitives they hold.
///
/// Conventions:
///  - Shared state guarded by a lock is declared `T field HODLRX_GUARDED_BY(mu);`.
///  - Functions that must be called with the lock held are annotated
///    `HODLRX_REQUIRES(mu)`; the analysis checks every call site.
///  - Condition-variable waits use `CondVar` + an explicit
///    `while (!pred) cv.wait(mu);` loop inside a locked scope. Lambda
///    predicates passed to std::condition_variable::wait are analyzed at the
///    lambda's definition (without the caller's lock set) and would warn, so
///    the runtime spells the loops out.
///  - Atomics are self-synchronizing and stay unannotated (fault_stats,
///    device counters).

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define HODLRX_TSA(x) __attribute__((x))
#endif
#endif
#ifndef HODLRX_TSA
#define HODLRX_TSA(x)  // no-op off clang
#endif

#define HODLRX_CAPABILITY(x) HODLRX_TSA(capability(x))
#define HODLRX_SCOPED_CAPABILITY HODLRX_TSA(scoped_lockable)
#define HODLRX_GUARDED_BY(x) HODLRX_TSA(guarded_by(x))
#define HODLRX_ACQUIRE(...) HODLRX_TSA(acquire_capability(__VA_ARGS__))
#define HODLRX_RELEASE(...) HODLRX_TSA(release_capability(__VA_ARGS__))
#define HODLRX_REQUIRES(...) HODLRX_TSA(requires_capability(__VA_ARGS__))

namespace hodlrx {

/// std::mutex with the capability attribute, so fields can be declared
/// HODLRX_GUARDED_BY(mu) and functions HODLRX_REQUIRES(mu).
class HODLRX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HODLRX_ACQUIRE() { mu_.lock(); }
  void unlock() HODLRX_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// Scoped lock for Mutex: held from construction to the end of the scope.
class HODLRX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HODLRX_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() HODLRX_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable that waits on a Mutex directly (condition_variable_any
/// accepts any BasicLockable), keeping the wait inside the annotated
/// capability instead of smuggling a std::unique_lock past the analysis.
/// Use as:  while (!pred) cv.wait(mu);   // with mu held
class CondVar {
 public:
  /// Atomically release `mu`, block, and reacquire before returning. Caller
  /// must hold `mu` (checked by the analysis).
  void wait(Mutex& mu) HODLRX_REQUIRES(mu) { cv_.wait(mu); }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace hodlrx
