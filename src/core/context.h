// Execution context: the single configuration surface for every
// phase-parallel run.
//
// A `pp::context` bundles what used to be scattered across a process-global
// backend flag and positional solver arguments: the parallel backend, the
// worker count, the RNG seed, the parallel-for grain, and algorithm policy
// knobs (currently the Type-2 pivot policy). Every solver in src/algos/
// has exactly one entry point, and it takes a `const context&`; the
// implicit `parallel_for`/`par_do` forms consult the *current* context
// (api.h), so a solver that installs its argument (run_scope, which wraps
// a `scoped_context`) threads its configuration through every fork
// underneath it without any global state of its own.
//
// Three levels:
//   * default_context() — mutable process-wide defaults (what `main` or a
//     CLI flag parser edits once at startup);
//   * current_context() — the context active for the running computation:
//     the innermost scoped_context, or the default when none is active;
//   * scoped_context    — RAII activation of a context for one run; solver
//     entry points install their argument with it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/cancel.h"
#include "parallel/backend.h"

namespace pp {

// How a blocked Type-2 object picks the unfinished dominated object to
// sleep on (core/dominance_dp.h).
enum class pivot_policy {
  uniform_random,  // Algorithm 3 as analyzed (Lemma 5.4/5.5)
  rightmost,       // the heuristic used in the paper's experiments (Sec. 6.4)
};

inline const char* pivot_policy_name(pivot_policy p) {
  return p == pivot_policy::uniform_random ? "uniform_random" : "rightmost";
}

struct context {
  backend_kind backend = backend_kind::native;
  unsigned workers = 0;  // 0 = backend default (PP_THREADS, else hardware concurrency)
  uint64_t seed = 1;     // seed for every random choice a solver makes
  size_t grain = 0;      // parallel_for grain; 0 = auto heuristic
  pivot_policy pivot = pivot_policy::rightmost;
  // Relaxation factor k for the relaxed k-MultiQueue execution mode
  // (parallel/multiqueue.h): the scheduler shards work over max(2, 2k)
  // sequential priority queues, so larger k trades contention for bounded
  // priority inversion (more wasted work). Ignored by phase/sequential
  // solvers.
  unsigned relax_k = 4;
  // Cooperative cancellation handle (core/cancel.h). Null by default; when
  // set, run_scope installs it for the run's thread and the phase loops
  // poll it between rounds. It never changes what a run computes, only
  // whether it finishes.
  cancel_token cancel{};

  // Value-style builders so call sites can derive variants in one line:
  //   registry::run(name, in, ctx.with_backend(backend_kind::sequential))
  context with_backend(backend_kind b) const {
    context c = *this;
    c.backend = b;
    return c;
  }
  context with_workers(unsigned w) const {
    context c = *this;
    c.workers = w;
    return c;
  }
  context with_seed(uint64_t s) const {
    context c = *this;
    c.seed = s;
    return c;
  }
  context with_grain(size_t g) const {
    context c = *this;
    c.grain = g;
    return c;
  }
  context with_pivot(pivot_policy p) const {
    context c = *this;
    c.pivot = p;
    return c;
  }
  context with_cancel(cancel_token t) const {
    context c = *this;
    c.cancel = std::move(t);
    return c;
  }
  context with_relax_k(unsigned k) const {
    context c = *this;
    c.relax_k = k;
    return c;
  }
};

// Process-wide defaults; mutable so startup code can configure them once.
inline context& default_context() {
  static context c;
  return c;
}

// Per-item execution seed for item `i` of a batch run under base seed
// `seed`: one SplitMix64 step over (seed, i). The rule lives here — not
// inside the registry — because it is part of the public batching
// contract: item i of registry::run_batch(name, inputs, ctx) executes
// under ctx.with_seed(derive_seed(ctx.seed, i)), so a batch is
// reproducible item-by-item with plain registry::run calls.
inline uint64_t derive_seed(uint64_t seed, uint64_t i) {
  uint64_t x = seed + (i + 1) * 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace detail {
// The context of the run executing on THIS thread: the innermost live
// scoped_context opened on it or, on a thread running a forked half, the
// one its forking thread had. Null outside every run. Per-thread, so two
// concurrent runs never observe each other's context: a fork hands the
// pointer to whichever thread executes the stolen half (fn_job in
// parallel/scheduler.h), and pools are leased to one run at a time.
inline thread_local const context* tl_active = nullptr;

// RAII install of an already-live context as this thread's active one,
// restoring the previous pointer on exit. What a forked half runs under
// on another thread: it stores no copy, since the forking thread's scope
// outlives the join.
class inherited_context {
 public:
  explicit inherited_context(const context* c) : prev_(tl_active) { tl_active = c; }
  ~inherited_context() { tl_active = prev_; }

  inherited_context(const inherited_context&) = delete;
  inherited_context& operator=(const inherited_context&) = delete;

 private:
  const context* prev_;
};
}  // namespace detail

// The context governing the running computation: the innermost active
// scoped_context of this run, or the process defaults when none is active.
inline const context& current_context() {
  const context* c = detail::tl_active;
  return c != nullptr ? *c : default_context();
}

// RAII activation: while alive, current_context() on this thread — and on
// every thread running a half forked beneath it — returns `c`. Solver
// entry points install their context argument with this so that every
// parallel_for/par_do they reach runs under it. Nested scopes shadow the
// enclosing one for their own subtree only.
class scoped_context {
 public:
  explicit scoped_context(const context& c) : ctx_(c), install_(&ctx_) {}

  scoped_context(const scoped_context&) = delete;
  scoped_context& operator=(const scoped_context&) = delete;

 private:
  context ctx_;
  detail::inherited_context install_;  // declared after ctx_: uninstalls first
};

}  // namespace pp
