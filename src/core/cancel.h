// Cooperative cancellation for phase-parallel runs.
//
// The paper's framework makes every run's round structure explicit, which
// is exactly the hook a serving system needs to stop work that no longer
// matters: between rounds the algorithm is at a quiescent point (no
// parallel region in flight), so a run can check whether its caller still
// wants the answer and unwind cleanly if not.
//
// `cancel_token` is a shared handle over one cancellation state: a manual
// flag (`cancel()`), an optional deadline (steady clock), or both. A
// default-constructed token is *null* — it never cancels and costs one
// thread-local pointer read per check, so token-free runs execute
// bit-for-bit what they always did.
//
//   pp::cancel_token tok = pp::cancel_token::after(std::chrono::milliseconds(50));
//   auto res = pp::registry::run("lis/parallel", in, ctx.with_cancel(tok));
//   if (res.status == pp::run_status::cancelled) ...  // unwound between rounds
//
// Granularity is the *phase*: the round loops (core/dominance_dp.h and
// the hand-rolled loops in src/algos/) call
// `cancel_point()` between rounds on the run's own thread, which throws
// `cancelled_error` when the installed token has been cancelled or its
// deadline has passed. `run_timed` (core/result.h) catches it and stamps
// `run_status::cancelled` into the envelope, so a cancelled dispatch is a
// status, not an exception, at every registry/serving surface.
//
// Checks are deliberately NOT placed inside parallel_for/par_do:
//  * a throw on a pool worker thread would escape its job and terminate;
//  * a throw on the run thread between a fork and its join would abandon a
//    job another worker is still executing (dangling references);
//  * a forked half inherits its run's context but not its token, so a
//    check on a thread running a stolen half never fires.
// The thread-local install below keeps every check where it works:
// `run_scope` installs the context's token on the run's own thread only,
// round boundaries are outside every parallel region, and nested scopes
// shadow (a token-free nested run is never cancelled by an enclosing
// token).
//
// This contract is enforced mechanically: tools/pplint.py (ctest
// `test_pplint` + a CI job) rejects any `cancel_point()` that appears
// lexically inside a parallel_for/par_do call's argument list, so the
// three failure modes above cannot be reintroduced by a refactor that
// TSan happens not to catch.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

namespace pp {

// Thrown by cancel_point()/cancel_token::check() on the run's own thread;
// caught by run_timed and surfaced as run_status::cancelled. Direct solver
// callers that pass a token should be prepared to catch it.
struct cancelled_error : std::runtime_error {
  cancelled_error() : std::runtime_error("pp: run cancelled") {}
};

class cancel_token {
 public:
  using clock = std::chrono::steady_clock;

  // Null token: valid() is false, never cancels, checks are a pointer test.
  cancel_token() = default;

  // Manually cancellable token (no deadline).
  static cancel_token manual() {
    cancel_token t;
    t.s_ = std::make_shared<state>();
    return t;
  }

  // Token that auto-cancels once `deadline` passes (and can still be
  // cancelled manually before that).
  static cancel_token at(clock::time_point deadline) {
    cancel_token t;
    t.s_ = std::make_shared<state>();
    t.s_->has_deadline = true;
    t.s_->deadline = deadline;
    return t;
  }

  // Convenience: deadline `budget` from now.
  template <typename Rep, typename Period>
  static cancel_token after(std::chrono::duration<Rep, Period> budget) {
    return at(clock::now() + std::chrono::duration_cast<clock::duration>(budget));
  }

  bool valid() const { return s_ != nullptr; }

  // Request cancellation. Safe from any thread; copies of this token share
  // the state, so cancelling one handle cancels the run holding another.
  void cancel() const {
    if (s_) s_->cancelled.store(true, std::memory_order_release);
  }

  // True once cancelled manually or past the deadline. A passed deadline
  // is latched into the flag so later checks skip the clock read.
  bool cancelled() const {
    if (!s_) return false;
    if (s_->cancelled.load(std::memory_order_acquire)) return true;
    if (s_->has_deadline && clock::now() >= s_->deadline) {
      s_->cancelled.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

  std::optional<clock::time_point> deadline() const {
    if (s_ && s_->has_deadline) return s_->deadline;
    return std::nullopt;
  }

  // Throw cancelled_error if cancelled. The round loops call this through
  // cancel_point() below.
  void check() const {
    if (cancelled()) throw cancelled_error();
  }

 private:
  struct state {
    std::atomic<bool> cancelled{false};
    bool has_deadline = false;  // immutable after construction
    clock::time_point deadline{};
  };
  std::shared_ptr<state> s_;
};

namespace detail {
// The token governing the run executing on THIS thread (installed by
// run_scope via scoped_cancel). Thread-local on purpose and, unlike the
// active context (core/context.h), never handed to a forked half: a
// thread running a stolen job sees no token, so cancel_point() there is a
// no-op and cannot throw out of a job.
inline thread_local const cancel_token* tl_cancel = nullptr;
}  // namespace detail

// RAII install of a run's token on the current thread. A null token
// installs "no token" (shadowing any enclosing one), so a token-free
// nested run — e.g. one item of a serving batch whose neighbor carries a
// deadline — can never be cancelled by state it was not given.
class scoped_cancel {
 public:
  explicit scoped_cancel(cancel_token t) : tok_(std::move(t)), prev_(detail::tl_cancel) {
    detail::tl_cancel = tok_.valid() ? &tok_ : nullptr;
  }
  ~scoped_cancel() { detail::tl_cancel = prev_; }

  scoped_cancel(const scoped_cancel&) = delete;
  scoped_cancel& operator=(const scoped_cancel&) = delete;

 private:
  cancel_token tok_;  // owned copy: the install outlives the caller's handle
  const cancel_token* prev_;
};

// The per-round cancellation check. Call between phases, on the run's own
// thread, outside any parallel region. No installed token = one
// thread-local read, so instrumented loops are free for token-less runs.
inline void cancel_point() {
  if (detail::tl_cancel != nullptr) detail::tl_cancel->check();
}

}  // namespace pp
