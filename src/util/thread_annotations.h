// Compile-time concurrency discipline for ssjoin (DESIGN.md Section 10).
//
// Two things live here, deliberately in one file:
//
//   1. The SSJOIN_* thread-safety annotation macros, thin wrappers over
//      clang's Thread Safety Analysis attributes. Under clang the whole
//      library builds with -Wthread-safety -Werror=thread-safety, so a
//      guarded field touched without its mutex, or a REQUIRES method
//      called without the capability, is a *build error*. Under gcc the
//      macros expand to nothing and the same code compiles unchanged.
//
//   2. The util::Mutex / util::MutexLock / util::CondVar wrappers over
//      <mutex> and <condition_variable>. They are the only sanctioned
//      mutual-exclusion primitives in src/: the `mutex-wrapper-only`
//      lint rule (tools/lint/ssjoin_lint.py) forbids bare
//      std::mutex / std::lock_guard / std::condition_variable anywhere
//      else, so locking can never silently bypass the capability
//      annotations.
//
// How to annotate new shared state (the recipe item 1's server work and
// item 5's operator pipeline must follow):
//
//   class Queue {
//    public:
//     void Push(Item item) SSJOIN_EXCLUDES(mutex_);
//    private:
//     size_t SizeLocked() const SSJOIN_REQUIRES(mutex_);
//     util::Mutex mutex_;
//     std::deque<Item> items_ SSJOIN_GUARDED_BY(mutex_);
//   };
//
// Every mutable member of a class that owns a Mutex must either carry
// SSJOIN_GUARDED_BY(<that mutex>) or an explicit
// `// ssjoin-lint: allow(guarded-by-required)` opt-out with a comment
// explaining why it is safe (thread-confined, internally synchronized,
// written only before threads start). The `guarded-by-required` lint
// rule enforces this, so deleting an annotation fails ctest even on a
// gcc-only machine where the clang analysis cannot run.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

// clang implements the capability attributes; gcc does not. __has_attribute
// keeps this safe on future clangs that might rename them.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define SSJOIN_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef SSJOIN_THREAD_ANNOTATION__
#define SSJOIN_THREAD_ANNOTATION__(x)  // not clang: annotations vanish
#endif

/// Declares a class to be a lockable capability ("mutex" names it in
/// diagnostics).
#define SSJOIN_CAPABILITY(x) SSJOIN_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII class whose lifetime equals holding a capability.
#define SSJOIN_SCOPED_CAPABILITY SSJOIN_THREAD_ANNOTATION__(scoped_lockable)

/// Field may only be read/written while holding `x`.
#define SSJOIN_GUARDED_BY(x) SSJOIN_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer field: the *pointee* may only be accessed while holding `x`.
#define SSJOIN_PT_GUARDED_BY(x) SSJOIN_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function acquires the capability (held on return, not on entry).
#define SSJOIN_ACQUIRE(...) \
  SSJOIN_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, not on return).
#define SSJOIN_RELEASE(...) \
  SSJOIN_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function may only be called while holding the capability.
#define SSJOIN_REQUIRES(...) \
  SSJOIN_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function may only be called while NOT holding the capability (it will
/// acquire it itself; calling with it held would deadlock).
#define SSJOIN_EXCLUDES(...) \
  SSJOIN_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Function acquires the capability iff it returns `b`.
#define SSJOIN_TRY_ACQUIRE(b, ...) \
  SSJOIN_THREAD_ANNOTATION__(try_acquire_capability(b, __VA_ARGS__))

/// Asserts (at runtime, for the analysis) that the capability is held.
#define SSJOIN_ASSERT_CAPABILITY(x) \
  SSJOIN_THREAD_ANNOTATION__(assert_capability(x))

/// Declares which capability a function returns a reference to.
#define SSJOIN_RETURN_CAPABILITY(x) \
  SSJOIN_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: the function's locking discipline is intentionally
/// outside what the analysis can express (e.g. "caller must have joined
/// all threads"). Always pair with a comment justifying the exemption.
#define SSJOIN_NO_THREAD_SAFETY_ANALYSIS \
  SSJOIN_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace ssjoin::util {

class CondVar;

/// std::mutex as a named capability. All mutual exclusion in src/ goes
/// through this wrapper (lint rule `mutex-wrapper-only`); prefer the
/// RAII MutexLock over manual Lock()/Unlock().
class SSJOIN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SSJOIN_ACQUIRE() { mu_.lock(); }
  void Unlock() SSJOIN_RELEASE() { mu_.unlock(); }
  bool TryLock() SSJOIN_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII lock: holds `mu` from construction to destruction. The scoped
/// capability tells the analysis exactly which mutex is held across the
/// block, so guarded fields may be touched inside it.
class SSJOIN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SSJOIN_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() SSJOIN_RELEASE() {}  // unique_lock_ releases the mutex

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to util::Mutex through MutexLock.
///
/// Wait() atomically releases and reacquires the lock's mutex; the
/// analysis does not model that round trip, so to it the capability is
/// simply held across the call — which is exactly the guarantee the
/// caller observes on both sides of Wait(). Use the classic loop form:
///
///   MutexLock lock(mutex_);
///   while (!predicate_locked()) cv_.Wait(lock);
///
/// (Predicates live in plain `while` conditions, not lambdas, so every
/// guarded read stays inside the MutexLock scope the analysis sees.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// Timed wait: returns false on timeout, true when notified. Same
  /// capability story as Wait(); used by the progress heartbeat for an
  /// interruptible sleep (obs/progress.cc).
  bool WaitFor(MutexLock& lock, int64_t micros) {
    return cv_.wait_for(lock.lock_, std::chrono::microseconds(micros)) ==
           std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ssjoin::util
