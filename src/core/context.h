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

#include <omp.h>

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/annotations.h"
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
  unsigned workers = 0;  // 0 = backend default (pool size / omp_get_max_threads)
  uint64_t seed = 1;     // seed for every random choice a solver makes
  size_t grain = 0;      // parallel_for grain; 0 = auto heuristic
  pivot_policy pivot = pivot_policy::rightmost;
  // Relaxation factor k for the relaxed k-MultiQueue execution mode
  // (parallel/multiqueue.h): the scheduler shards work over max(2, 2k)
  // sequential priority queues, so larger k trades contention for bounded
  // priority inversion (more wasted work). Ignored by phase/sequential
  // solvers; a configuration knob, so it participates in operator==.
  unsigned relax_k = 4;
  // Cooperative cancellation handle (core/cancel.h). Null by default; when
  // set, run_scope installs it for the run's thread and the phase loops
  // poll it between rounds. NOT a configuration knob: it never changes
  // what a run computes, only whether it finishes, so it is excluded from
  // operator== below (two racing runs that differ only in their tokens are
  // not cross-contaminating configs).
  cancel_token cancel{};

  // Value-style builders so call sites can derive variants in one line:
  //   registry::run(name, in, ctx.with_backend(backend_kind::openmp))
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

  // Config-wise equality: two runs "agree" iff every knob that affects
  // what they compute matches. Used by the scope-race detector below and
  // handy in tests. The cancel token is deliberately ignored — concurrent
  // serving batches carry per-request deadline tokens and must not be
  // flagged as conflicting configs.
  friend bool operator==(const context& a, const context& b) {
    return a.backend == b.backend && a.workers == b.workers && a.seed == b.seed &&
           a.grain == b.grain && a.pivot == b.pivot && a.relax_k == b.relax_k;
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
// The active context is held by shared_ptr so that interleaved or
// concurrent scopes can never restore a pointer into a dead stack frame:
// worst case two racing top-level runs observe each other's context (the
// same last-writer-wins semantics the old atomic backend flag had), never
// undefined behavior. The slot is a shared_mutex-guarded shared_ptr
// rather than std::atomic<shared_ptr>: readers (every implicit
// parallel_for/par_do entry) take a shared lock, writers (scope
// install/restore, already serialized on the scope registry mutex) take
// it exclusively. libstdc++'s atomic<shared_ptr> synchronizes through an
// internal spin bit ThreadSanitizer cannot model, which made every
// concurrent serving run (src/serve/) a TSan false positive; the rwlock
// costs the same order of magnitude per read and is fully TSan-visible.
// The guard relationship is annotated (core/annotations.h), so clang's
// -Wthread-safety proves every slot access takes the rwlock.
struct context_slot {
  sync::shared_mutex m;
  std::shared_ptr<const context> p PP_GUARDED_BY(m);
};
inline context_slot& slot() {
  static context_slot s;
  return s;
}
inline std::shared_ptr<const context> slot_load() {
  context_slot& s = slot();
  sync::shared_lock<sync::shared_mutex> lk(s.m);
  return s.p;
}
inline std::shared_ptr<const context> slot_exchange(std::shared_ptr<const context> p) {
  context_slot& s = slot();
  sync::lock_guard<sync::shared_mutex> lk(s.m);
  std::swap(s.p, p);
  return p;
}
inline void slot_store(std::shared_ptr<const context> p) {
  context_slot& s = slot();
  sync::lock_guard<sync::shared_mutex> lk(s.m);
  s.p = std::move(p);
}
// Store `desired` iff the slot still holds `expected`; returns whether it
// did. (The compare-exchange of the restore path.)
inline bool slot_compare_store(const std::shared_ptr<const context>& expected,
                               std::shared_ptr<const context> desired) {
  context_slot& s = slot();
  sync::lock_guard<sync::shared_mutex> lk(s.m);
  if (s.p != expected) return false;
  s.p = std::move(desired);
  return true;
}

// ---- Scope-race detector ----------------------------------------------------
//
// Activation is process-wide last-writer-wins, so two top-level runs racing
// on scoped_context with *different* configs silently cross-contaminate
// (each may execute under the other's backend/workers/seed). The detector
// keeps the set of live top-level scopes and counts conflicts: a top-level
// scope whose config differs from another live top-level scope. Debug
// builds assert so racing tests fail loudly; release builds count and warn
// so soak harnesses can check scope_conflicts() stayed zero. Prefer
// passing contexts explicitly (parallel_for(ctx, ...)) in genuinely
// concurrent code.
//
// "Top-level" means: first scope on this thread (per-thread depth 0) AND
// the thread is not a scheduler worker executing someone else's run — a
// scope installed from inside a work-stealing pool or an OpenMP region is
// part of the enclosing run, not a new racing run.

// Defined in parallel/scheduler.{h,cpp}; declared here to avoid pulling
// the scheduler into every context.h include. True only on a pool-spawned
// worker thread (slot > 0); a run's own thread — including one holding a
// pool lease via scoped_scheduler, as every registry::run does — is NOT a
// worker thread and its first scope still registers as top-level.
bool on_scheduler_worker_thread();

inline thread_local int tl_scope_depth = 0;

struct scope_registry {
  sync::mutex m;
  // live top-level scopes' configs
  std::vector<const context*> live PP_GUARDED_BY(m);
  // Slot value from before the first scope of the current overlap episode
  // registered — what the slot must return to once every scope has exited,
  // regardless of exit order.
  std::shared_ptr<const context> episode_base PP_GUARDED_BY(m);
  std::atomic<uint64_t> conflicts{0};
  // Debug-build kill switch. Tests that provoke a conflict on purpose (to
  // check the detector itself) clear it around the race.
  std::atomic<bool> assert_on_conflict{true};
};

inline scope_registry& scopes() {
  static scope_registry r;
  return r;
}

// Total conflicting top-level-scope activations observed so far.
inline uint64_t scope_conflicts() {
  return scopes().conflicts.load(std::memory_order_relaxed);
}
}  // namespace detail

// A snapshot of the context governing the running computation: the
// innermost active scoped_context, or the process defaults when none is
// active.
inline context current_context() {
  std::shared_ptr<const context> p = detail::slot_load();
  return p ? *p : default_context();
}

// RAII activation: while alive, current_context() returns (a copy of) `c`.
// Solver entry points install their context argument with this so that
// every parallel_for/par_do they reach runs under it. Like the old backend
// flag, activation is process-wide, not per-thread: fork-join workers must
// observe the caller's context. Concurrent top-level scopes with
// *different* configs are flagged by the scope-race detector above (assert
// in debug builds, counted warning otherwise); the destructor's
// compare-exchange restore keeps a finishing scope from yanking the slot
// out from under a still-live racing scope. What remains unflagged:
// overlapping scopes with equal configs (benign while both live — the
// loser of the exit race keeps a stale-but-identical config installed)
// and nested scopes entered on one thread (intended shadowing, not a
// race). The slot always points at live storage. For genuinely concurrent
// runs, pass contexts explicitly (parallel_for(ctx, ...)).
class scoped_context {
 public:
  // Both the slot mutation and the registry bookkeeping happen under
  // scopes().m, so a scope can never observe a slot state the registry
  // does not yet (or no longer) describes — without the shared critical
  // section, an install racing a register (or a final unregister racing a
  // fresh install) could record the wrong episode base or clobber a just-
  // installed live scope. current_context() readers never take the lock.
  explicit scoped_context(const context& c) : installed_(std::make_shared<const context>(c)) {
    top_level_ = detail::tl_scope_depth++ == 0 && !detail::on_scheduler_worker_thread() &&
                 omp_in_parallel() == 0;
    detail::scope_registry& r = detail::scopes();
    sync::lock_guard<sync::mutex> lk(r.m);
    saved_ = detail::slot_exchange(installed_);
    if (!top_level_) return;
    if (r.live.empty()) r.episode_base = saved_;
    bool conflict = false;
    for (const context* other : r.live) {
      if (!(*other == *installed_)) {
        conflict = true;
        break;
      }
    }
    r.live.push_back(installed_.get());
    if (conflict) {
      r.conflicts.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "pp: WARNING: two live top-level scoped_contexts with different "
                   "configs; concurrent runs may observe each other's settings. "
                   "Pass contexts explicitly to parallel_for/par_do instead.\n");
    }
    assert((!conflict || !r.assert_on_conflict.load()) &&
           "two live top-level scoped_contexts with different configs: "
           "racing runs would cross-contaminate");
  }
  ~scoped_context() {
    detail::scope_registry& r = detail::scopes();
    sync::lock_guard<sync::mutex> lk(r.m);
    --detail::tl_scope_depth;
    if (top_level_) {
      for (size_t i = r.live.size(); i-- > 0;) {
        if (r.live[i] == installed_.get()) {
          r.live.erase(r.live.begin() + static_cast<ptrdiff_t>(i));
          break;
        }
      }
      if (r.live.empty()) {
        // Last top-level scope of the overlap episode: restore the slot to
        // its pre-episode state regardless of exit order — a saved_-chain
        // restore could point at a scope that died earlier in the race.
        detail::slot_store(std::move(r.episode_base));
        r.episode_base.reset();
        return;
      }
    }
    // Other top-level scopes are still live (or we are a nested scope):
    // restore only if the slot still holds our context. If a racing scope
    // replaced it, leaving the slot alone keeps the *live* run's context
    // installed instead of yanking it back to ours mid-run.
    detail::slot_compare_store(installed_, std::move(saved_));
  }

  scoped_context(const scoped_context&) = delete;
  scoped_context& operator=(const scoped_context&) = delete;

 private:
  std::shared_ptr<const context> installed_;
  std::shared_ptr<const context> saved_;
  bool top_level_;
};

}  // namespace pp
