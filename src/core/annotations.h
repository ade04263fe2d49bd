// Clang thread-safety annotations + capability-annotated lock types.
//
// The repo's concurrency invariants — which mutex guards which member, and
// which functions must be entered with a lock held — used to live in
// comments (the pool-lease protocol in parallel/scheduler.h, the admission
// deques in serve/engine.h). This header turns them into machine-checked
// facts: Clang's -Wthread-safety static analysis proves, at compile time
// and over ALL interleavings, that every access to a PP_GUARDED_BY member
// happens under its mutex — TSan only sees the interleavings a test
// happens to hit.
//
// Two parts:
//
//  * The PP_* attribute macros. They expand to clang's thread-safety
//    attributes under clang and to nothing elsewhere, so gcc builds are
//    bit-identical to before. The analysis itself runs only when
//    -Wthread-safety is passed (CMake: -DPP_THREAD_SAFETY=ON, which also
//    promotes the warnings to errors).
//
//  * pp::sync — drop-in lock types. The analysis is attribute-driven:
//    libstdc++'s std::mutex / std::lock_guard carry no attributes, so a
//    lock taken through them is invisible to the checker. pp::sync::mutex,
//    lock_guard, and unique_lock are zero-cost inline wrappers over the
//    std types with the capability attributes attached. Condition
//    variables keep working: unique_lock is a BasicLockable, so
//    std::condition_variable_any waits on it directly. Predicate lambdas
//    passed to wait(lk, pred) are analyzed as separate functions that do
//    NOT know the lock is held — write the wait loop out
//    (`while (!pred) cv.wait(lk);`) so guarded reads stay inside the
//    annotated scope.
//
// Annotation discipline used across the repo:
//   * every mutex-protected member:            PP_GUARDED_BY(m_)
//   * every must-hold-to-call helper:          PP_REQUIRES(m_)
//   * lock-wrapper methods:                    PP_ACQUIRE / PP_RELEASE /
//                                              PP_TRY_ACQUIRE
//   * lock expressions use a local reference (`deque_slot& s = *deques_[i];
//     lock_guard lk(s.m); s.q...`) so the checker can match the lock
//     expression to the guard expression syntactically.
#pragma once

#include <mutex>

#if defined(__clang__)
#define PP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PP_THREAD_ANNOTATION(x)  // no-op: gcc/msvc have no -Wthread-safety
#endif

// A type that is a lockable capability ("mutex" in diagnostics).
#define PP_CAPABILITY(x) PP_THREAD_ANNOTATION(capability(x))
// An RAII type that acquires a capability at construction and releases it
// at destruction (lock_guard / unique_lock below).
#define PP_SCOPED_CAPABILITY PP_THREAD_ANNOTATION(scoped_lockable)
// Data member readable/writable only with the named capability held.
#define PP_GUARDED_BY(x) PP_THREAD_ANNOTATION(guarded_by(x))
// Pointer member whose *pointee* is protected by the named capability.
#define PP_PT_GUARDED_BY(x) PP_THREAD_ANNOTATION(pt_guarded_by(x))
// Function that must be called with the capability held (and not released).
#define PP_REQUIRES(...) PP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
// Function that acquires / releases the capability (no argument on a
// member of the capability type itself: the capability is *this).
#define PP_ACQUIRE(...) PP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PP_RELEASE(...) PP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
// Function that acquires the capability iff it returns the given value.
#define PP_TRY_ACQUIRE(...) PP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
// Function that must NOT be called with the capability held (deadlock
// guard for lock-then-call-self shapes).
#define PP_EXCLUDES(...) PP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// Escape hatch; use only with a comment explaining why the analysis is
// wrong, never to silence a finding that might be real.
#define PP_NO_THREAD_SAFETY_ANALYSIS PP_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace pp::sync {

// Exclusive mutex with capability attributes. Same layout and cost as the
// std::mutex it wraps.
class PP_CAPABILITY("mutex") mutex {
 public:
  mutex() = default;
  mutex(const mutex&) = delete;
  mutex& operator=(const mutex&) = delete;

  void lock() PP_ACQUIRE() { m_.lock(); }
  void unlock() PP_RELEASE() { m_.unlock(); }
  bool try_lock() PP_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  std::mutex m_;
};

// std::lock_guard counterpart: exclusive lock for one scope.
template <typename M>
class PP_SCOPED_CAPABILITY lock_guard {
 public:
  explicit lock_guard(M& m) PP_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~lock_guard() PP_RELEASE() { m_.unlock(); }

  lock_guard(const lock_guard&) = delete;
  lock_guard& operator=(const lock_guard&) = delete;

 private:
  M& m_;
};

// std::unique_lock counterpart: relockable scoped lock, BasicLockable, so
// std::condition_variable_any can wait on it. The analysis tracks the
// held/released state through lock()/unlock(); the destructor releases iff
// still held (a wait() leaves the lock held, so the common path never
// branches differently from std::unique_lock).
template <typename M>
class PP_SCOPED_CAPABILITY unique_lock {
 public:
  explicit unique_lock(M& m) PP_ACQUIRE(m) : m_(m), owns_(true) { m_.lock(); }
  ~unique_lock() PP_RELEASE() {
    if (owns_) m_.unlock();
  }

  void lock() PP_ACQUIRE() {
    m_.lock();
    owns_ = true;
  }
  void unlock() PP_RELEASE() {
    m_.unlock();
    owns_ = false;
  }
  bool owns_lock() const { return owns_; }

  unique_lock(const unique_lock&) = delete;
  unique_lock& operator=(const unique_lock&) = delete;

 private:
  M& m_;
  bool owns_;
};

}  // namespace pp::sync
