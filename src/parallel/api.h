// Public fork-join API: pp::par_do and pp::parallel_for.
//
// These are the only two control primitives the rest of the library uses;
// everything else (reduce, scan, sort, the phase-parallel runners) is built
// on top of them, mirroring the binary-forking model of the paper (Sec. 2).
//
// Both come in two forms: an explicit-context overload
// (`parallel_for(ctx, lo, hi, f)`) and a convenience form that runs under
// pp::current_context(). Every solver has one entry point, which takes a
// `const context&` and installs it with run_scope (below), so either form
// observes the right backend, worker count, and grain inside a solve.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "core/context.h"
#include "core/trace.h"
#include "parallel/backend.h"
#include "parallel/scheduler.h"

namespace pp {

// The number of workers a run under `ctx` actually executes on. For the
// native backend: the width of the pool the calling thread is already
// pinned to (a run keeps its pool from fork to join), else the width a
// fresh lease would have — ctx.workers, or the PP_THREADS/hardware default
// when 0. The auto_grain heuristic reads this same value.
inline unsigned num_workers(const context& ctx) {
  if (ctx.backend == backend_kind::sequential) return 1;
  if (const detail::work_stealing_pool* pool = detail::this_thread_pool())
    return pool->num_workers();
  return detail::resolve_native_workers(ctx.workers);
}

inline unsigned num_workers() { return num_workers(current_context()); }

// RAII scheduler binding for one top-level run. On the native backend it
// leases a work-stealing pool of exactly num_workers(ctx) workers and pins
// the calling thread to it; nested constructions (a run inside a run)
// reuse the already-pinned pool. `workers()` is the honest count stamped
// into run_result.
class scoped_scheduler {
 public:
  explicit scoped_scheduler(const context& ctx) {
    if (ctx.backend == backend_kind::sequential) return;
    if (const detail::work_stealing_pool* pool = detail::this_thread_pool()) {
      workers_ = pool->num_workers();
    } else {
      lease_ = detail::pool_lease(detail::resolve_native_workers(ctx.workers));
      workers_ = lease_.width();
    }
  }

  scoped_scheduler(const scoped_scheduler&) = delete;
  scoped_scheduler& operator=(const scoped_scheduler&) = delete;

  unsigned workers() const { return workers_; }

 private:
  detail::pool_lease lease_;
  unsigned workers_ = 1;
};

// What every solver entry installs: activates `c` for the implicit
// parallel_for/par_do forms on this thread and every thread its forks
// reach (scoped_context), binds the run's scheduler (scoped_scheduler) so
// the whole solve executes on one leased pool instead of paying a lease
// cycle per top-level parallel region, AND installs the context's cancel
// token for this thread only (scoped_cancel) so the phase loops'
// cancel_point() polls the right run's token — and only it. A run_scope
// emits no trace span; the `run` span comes from run_timed
// (core/result.h), once per registry solve.
class run_scope {
 public:
  explicit run_scope(const context& c) : scope_(c), sched_(c), cancel_(c.cancel) {}
  unsigned workers() const { return sched_.workers(); }

 private:
  scoped_context scope_;
  scoped_scheduler sched_;
  scoped_cancel cancel_;
};

// Run `left` and `right`, potentially in parallel; returns when both are
// done (a binary fork).
template <typename L, typename R>
void par_do(const context& ctx, L&& left, R&& right) {
  if (ctx.backend == backend_kind::sequential) {
    left();
    right();
    return;
  }
  detail::work_stealing_pool* pool = detail::this_thread_pool();
  detail::pool_lease lease;
  if (pool == nullptr) {
    // Outermost fork of a run that was not dispatched through
    // registry::run/run_timed: lease a pool of the context's width for the
    // duration of this fork-join tree.
    lease = detail::pool_lease(detail::resolve_native_workers(ctx.workers));
    pool = detail::this_thread_pool();
  }
  if (pool->num_workers() == 1) {
    // A 1-wide pool has no other workers: run strictly sequentially
    // instead of cycling jobs through the deque.
    left();
    right();
    return;
  }
  detail::fn_job<R> rjob(right);
  pool->push(&rjob);
  left();
  if (pool->try_pop_specific(&rjob)) {
    right();
  } else {
    pool->wait_for(rjob);
  }
}

template <typename L, typename R>
void par_do(L&& left, R&& right) {
  par_do(current_context(), std::forward<L>(left), std::forward<R>(right));
}

namespace detail {

// Granularity: a fork pays for itself only when each side has enough work,
// so a default grain is sized by work, not by iteration count (the PAM
// `do_parallel(n, m)` idiom).
//
//  * The grain is the fewest iterations a task runs: a range splits only
//    while both halves get at least `grain` (see splits), so a range
//    shorter than 2 * grain runs inline and forks nothing.
//  * kMinGrain is the work floor, in O(1) steps: auto_grain(n, W) =
//    max(n / (8W), kMinGrain), i.e. 8 pieces per worker on big loops for
//    balance, never below the floor. A default-grain loop of fewer than
//    2 * kMinGrain cheap iterations (the few-item frontier of most phase
//    rounds) therefore never forks. auto_grain is the only place a default
//    grain is computed.
//  * A body that costs far more than an O(1) step (a range-tree query, an
//    adjacency scan, a DP row over all items) passes an explicit grain of
//    grain_for_cost(steps per iteration), so one task still does about
//    kMinGrain steps and expensive loops keep forking at small n.
//
// Which grain wins: an explicit `grain` argument, then ctx.grain
// (--grain / PP_GRAIN), then auto_grain; resolve_grain applies that order
// for parallel_for and reduce_map alike. A parallel loop has O(log n) span
// from the recursive splitting plus the O(grain) leaf, matching the model
// in the paper.
constexpr size_t kMinGrain = 1024;

inline size_t auto_grain(size_t n, unsigned workers) {
  size_t pieces = static_cast<size_t>(workers) * 8;
  return std::max(n / (pieces == 0 ? 1 : pieces), kMinGrain);
}

// Iterations per task for a body costing about `steps_per_iter` O(1) steps.
constexpr size_t grain_for_cost(size_t steps_per_iter) {
  return std::max<size_t>(1, kMinGrain / std::max<size_t>(1, steps_per_iter));
}

inline size_t resolve_grain(const context& ctx, size_t n, size_t grain) {
  if (grain != 0) return grain;
  if (ctx.grain != 0) return ctx.grain;
  return auto_grain(n, num_workers(ctx));
}

// Whether a range of n iterations forks at this grain.
constexpr bool splits(size_t n, size_t grain) { return n >= 2 * grain; }

template <typename F>
void parallel_for_rec(const context& ctx, size_t lo, size_t hi, F& f, size_t grain) {
  if (!splits(hi - lo, grain)) {
    for (size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  size_t mid = lo + (hi - lo) / 2;
  par_do(
      ctx, [&] { parallel_for_rec(ctx, lo, mid, f, grain); },
      [&] { parallel_for_rec(ctx, mid, hi, f, grain); });
}

}  // namespace detail

// Apply f(i) for i in [lo, hi). `grain` = 0 defers to ctx.grain, then to
// auto_grain (see resolve_grain); a range that does not split runs inline.
template <typename F>
void parallel_for(const context& ctx, size_t lo, size_t hi, F f, size_t grain = 0) {
  if (hi <= lo) return;
  if (ctx.backend == backend_kind::sequential) {
    for (size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  detail::parallel_for_rec(ctx, lo, hi, f, detail::resolve_grain(ctx, hi - lo, grain));
}

// Under the current context.
template <typename F>
void parallel_for(size_t lo, size_t hi, F f, size_t grain = 0) {
  parallel_for(current_context(), lo, hi, std::move(f), grain);
}

}  // namespace pp
