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

#include <omp.h>

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
// when 0. The OpenMP `num_threads` clauses and the auto_grain heuristic
// read this same value, so every backend agrees on what "W workers" means.
inline unsigned num_workers(const context& ctx) {
  switch (ctx.backend) {
    case backend_kind::sequential:
      return 1;
    case backend_kind::openmp:
      // Inside a parallel region the run executes on the enclosing team,
      // whatever the context asks for (the nested par_do/parallel_for
      // paths spawn tasks into it) — report that, mirroring the native
      // pinned-pool rule below.
      if (omp_in_parallel()) return static_cast<unsigned>(omp_get_num_threads());
      return ctx.workers != 0 ? ctx.workers
                              : static_cast<unsigned>(omp_get_max_threads());
    case backend_kind::native:
    default: {
      if (const detail::work_stealing_pool* pool = detail::this_thread_pool())
        return pool->num_workers();
      return detail::resolve_native_workers(ctx.workers);
    }
  }
}

inline unsigned num_workers() { return num_workers(current_context()); }

namespace detail {
// Nesting depth of scoped_scheduler on this thread; only the outermost
// binding pays one-time setup (the OpenMP team warm-up).
inline thread_local int tl_sched_depth = 0;
}  // namespace detail

// RAII scheduler binding for one top-level run. On the native backend it
// leases a work-stealing pool of exactly num_workers(ctx) workers and pins
// the calling thread to it; nested constructions (a run inside a run)
// reuse the already-pinned pool. On OpenMP it resolves the width and, at
// the outermost binding only, warms the team (libgomp spawns threads
// lazily at the first parallel region, which would otherwise land inside
// run_timed's clock — unlike the native lease, whose spawn cost is paid
// here). `workers()` is the honest count stamped into run_result.
class scoped_scheduler {
 public:
  explicit scoped_scheduler(const context& ctx)
      : outermost_(detail::tl_sched_depth++ == 0) {
    switch (ctx.backend) {
      case backend_kind::sequential:
        workers_ = 1;
        break;
      case backend_kind::openmp: {
        workers_ = num_workers(ctx);
        if (outermost_ && !omp_in_parallel()) {
          int nt = static_cast<int>(workers_);
#pragma omp parallel num_threads(nt)
          {
          }
        }
        break;
      }
      case backend_kind::native:
      default:
        if (const detail::work_stealing_pool* pool = detail::this_thread_pool()) {
          workers_ = pool->num_workers();
        } else {
          lease_ = detail::pool_lease(detail::resolve_native_workers(ctx.workers));
          workers_ = lease_.width();
        }
        break;
    }
  }
  ~scoped_scheduler() { --detail::tl_sched_depth; }

  scoped_scheduler(const scoped_scheduler&) = delete;
  scoped_scheduler& operator=(const scoped_scheduler&) = delete;

  unsigned workers() const { return workers_; }

 private:
  bool outermost_;
  detail::pool_lease lease_;
  unsigned workers_ = 1;
};

// What every solver entry installs: activates `c` for the implicit
// parallel_for/par_do forms (scoped_context), binds the run's scheduler
// (scoped_scheduler) so the whole solve executes on one leased pool
// instead of paying a lease cycle per top-level parallel region, AND
// installs the context's cancel token for this thread (scoped_cancel) so
// the phase loops' cancel_point() polls the right run's token — and only
// it. Construction order matters: the scope registers with the race
// detector before the lease pins the thread. A run_scope emits no trace
// span; the `run` span comes from run_timed (core/result.h), once per
// registry solve.
class run_scope {
 public:
  explicit run_scope(const context& c) : scope_(c), sched_(c), cancel_(c.cancel) {}
  unsigned workers() const { return sched_.workers(); }

 private:
  scoped_context scope_;
  scoped_scheduler sched_;
  scoped_cancel cancel_;
};

namespace detail {

template <typename L, typename R>
void par_do_native(const context& ctx, L&& left, R&& right) {
  work_stealing_pool* pool = this_thread_pool();
  pool_lease lease;
  if (pool == nullptr) {
    // Outermost fork of a run that was not dispatched through
    // registry::run/run_timed: lease a pool of the context's width for the
    // duration of this fork-join tree.
    lease = pool_lease(resolve_native_workers(ctx.workers));
    pool = this_thread_pool();
  }
  if (pool->num_workers() == 1) {
    // A 1-wide pool has no other workers: run strictly sequentially
    // instead of cycling jobs through the deque.
    left();
    right();
    return;
  }
  fn_job<R> rjob(right);
  pool->push(&rjob);
  left();
  if (pool->try_pop_specific(&rjob)) {
    right();
  } else {
    pool->wait_for(rjob);
  }
}

template <typename L, typename R>
void par_do_omp_inner(L&& left, R&& right) {
#pragma omp task shared(left) default(shared)
  left();
  right();
#pragma omp taskwait
}

template <typename L, typename R>
void par_do_omp(const context& ctx, L&& left, R&& right) {
  if (omp_in_parallel()) {
    par_do_omp_inner(left, right);
  } else {
    int nt = static_cast<int>(num_workers(ctx));
#pragma omp parallel default(shared) num_threads(nt)
#pragma omp single nowait
    par_do_omp_inner(left, right);
  }
}

}  // namespace detail

// Run `left` and `right`, potentially in parallel; returns when both are
// done (a binary fork).
template <typename L, typename R>
void par_do(const context& ctx, L&& left, R&& right) {
  switch (ctx.backend) {
    case backend_kind::sequential:
      left();
      right();
      break;
    case backend_kind::openmp:
      detail::par_do_omp(ctx, std::forward<L>(left), std::forward<R>(right));
      break;
    case backend_kind::native:
    default:
      detail::par_do_native(ctx, std::forward<L>(left), std::forward<R>(right));
      break;
  }
}

template <typename L, typename R>
void par_do(L&& left, R&& right) {
  par_do(current_context(), std::forward<L>(left), std::forward<R>(right));
}

namespace detail {

// Grain heuristic: enough sub-ranges to balance (8 per worker) but never
// absurdly small pieces. A parallel for-loop has O(log n) span from the
// recursive splitting, matching the model in the paper.
inline size_t auto_grain(size_t n, unsigned workers) {
  size_t pieces = static_cast<size_t>(workers) * 8;
  size_t g = n / (pieces == 0 ? 1 : pieces);
  if (g < 1) g = 1;
  return g;
}

template <typename F>
void parallel_for_rec(const context& ctx, size_t lo, size_t hi, F& f, size_t grain) {
  if (hi - lo <= grain) {
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
// the auto heuristic.
template <typename F>
void parallel_for(const context& ctx, size_t lo, size_t hi, F f, size_t grain = 0) {
  if (hi <= lo) return;
  size_t n = hi - lo;
  if (grain == 0) grain = ctx.grain;
  switch (ctx.backend) {
    case backend_kind::sequential: {
      for (size_t i = lo; i < hi; ++i) f(i);
      return;
    }
    case backend_kind::openmp: {
      if (omp_in_parallel()) {
        // Nested inside an OpenMP region (e.g. a parallel_for body that
        // itself forks): recursive binary splitting over OpenMP tasks, the
        // same shape as the native backend. The old behavior — silently
        // serializing the nested loop — destroyed the span bounds of every
        // algorithm with nested parallelism.
        if (grain == 0) grain = detail::auto_grain(n, num_workers(ctx));
        detail::parallel_for_rec(ctx, lo, hi, f, grain);
      } else {
        int nt = static_cast<int>(num_workers(ctx));
        if (grain > 0) {
          // honor an explicit grain (argument or ctx.grain) as the chunk size
#pragma omp parallel for schedule(dynamic, static_cast<int>(grain)) num_threads(nt)
          for (size_t i = lo; i < hi; ++i) f(i);
        } else {
#pragma omp parallel for schedule(guided) num_threads(nt)
          for (size_t i = lo; i < hi; ++i) f(i);
        }
      }
      return;
    }
    case backend_kind::native:
    default: {
      if (grain == 0) grain = detail::auto_grain(n, num_workers(ctx));
      detail::parallel_for_rec(ctx, lo, hi, f, grain);
      return;
    }
  }
}

template <typename F>
void parallel_for(size_t lo, size_t hi, F f, size_t grain = 0) {
  parallel_for(current_context(), lo, hi, std::move(f), grain);
}

}  // namespace pp
