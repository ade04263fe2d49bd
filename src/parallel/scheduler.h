// Work-stealing scheduler implementing the binary-forking model of the
// paper (Sec. 2): a computation forks two child tasks; the forking thread
// is suspended (here: it helps run other tasks) until both children finish.
//
// Design: one deque per worker. Worker slot 0 has no dedicated thread; it
// belongs to whichever thread currently *leases* the pool (normally the
// thread running a top-level solve), which participates in the computation
// whenever it reaches a join. Forked right-children are pushed to the
// owner's deque (LIFO for the owner); idle workers steal from the front
// (FIFO) of a random victim, which is the standard depth-first-work /
// breadth-first-steal discipline of work stealing [Blumofe & Leiserson].
//
// Pools are not process singletons. `pool_cache` keeps idle pools keyed by
// width; a `pool_lease` borrows one of exactly the width a run's context
// asks for (spawning it on first use) and pins the leasing thread to slot 0
// until the lease dies. Two concurrent top-level runs therefore never share
// a pool — not even when they ask for the same width — and a run asking for
// W workers really executes on W deques, which is what makes
// `context::workers` an honest experimental variable for the paper's
// scaling claims (Sec. 6).
//
// The deques are mutex-protected. On the target machines for this
// reproduction (a few cores) deque contention is negligible and the mutex
// variant avoids the memory-ordering subtleties of the Chase-Lev deque; the
// interface would admit a lock-free deque as a drop-in replacement.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/annotations.h"
#include "core/context.h"

namespace pp::detail {

// Type-erased unit of work. Fork-join jobs live on the forking thread's
// stack; the scheduler only ever sees raw pointers. A job must not be
// touched by its owner after `done` becomes true, and the job must not
// access its own members after setting `done` (the owner may have already
// destroyed it).
struct job {
  virtual void execute() = 0;
  std::atomic<bool> done{false};

 protected:
  ~job() = default;
};

// A forked half runs under its forking thread's context: the job records
// that thread's active context when it is created (right before the push)
// and execute() installs it around the body, on a thief and on an owner
// that runs the job while it waits alike.
template <typename F>
struct fn_job final : job {
  explicit fn_job(F& f) : f_(&f), ctx_(tl_active) {}
  void execute() override {
    F* f = f_;
    {
      inherited_context inherit(ctx_);
      (*f)();
    }
    done.store(true, std::memory_order_release);
    // `this` may be dead now; do not touch members.
  }

 private:
  F* f_;
  const context* ctx_;
};

class work_stealing_pool {
 public:
  // Spawns `nthreads - 1` worker threads for slots 1..nthreads-1; slot 0 is
  // reserved for the thread that leases the pool (see attach()).
  explicit work_stealing_pool(unsigned nthreads);
  ~work_stealing_pool();

  work_stealing_pool(const work_stealing_pool&) = delete;
  work_stealing_pool& operator=(const work_stealing_pool&) = delete;

  unsigned num_workers() const { return static_cast<unsigned>(deques_.size()); }

  // Bind the calling thread to worker slot 0 / unbind it. A pool has at
  // most one attached thread at a time (pool_cache hands each pool out
  // exclusively); a thread may be attached to at most one pool.
  void attach();
  void detach();

  // Push a job onto the calling worker's deque. Must be called from a
  // thread that owns a worker slot (worker 0 = the attached lease holder).
  void push(job* j);

  // Remove `j` from the calling worker's deque if it is still there.
  // Returns true on success (the caller then runs it inline); false means a
  // thief already took it.
  bool try_pop_specific(job* j);

  // Run other people's work until `j->done`. Called by the fork parent
  // whose right child was stolen.
  void wait_for(job& j);

  // Worker-id of the calling thread within *this* pool, or -1 if the
  // thread belongs to another pool or to no pool at all.
  int worker_id() const;

 private:
  struct deque_slot {
    sync::mutex m;
    std::deque<job*> q PP_GUARDED_BY(m);
  };

  void worker_loop(unsigned id);
  job* try_pop_local(unsigned id);
  job* try_steal(unsigned thief_id);

  std::vector<std::unique_ptr<deque_slot>> deques_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> active_{false};          // a lease holder is attached
  std::atomic<uint64_t> jobs_available_{0};  // wake hint for sleeping workers
  // Orders the atomic flag flips above against the workers' parking
  // predicate (guards no data of its own — the flags stay atomics so the
  // hot paths read them lock-free).
  sync::mutex sleep_m_;
  std::condition_variable_any sleep_cv_;
};

// The pool this thread is currently working for: its leased pool (between
// attach and detach) or, on a worker thread, the pool that spawned it.
// nullptr for threads outside any native-backend computation.
work_stealing_pool* this_thread_pool();

// Width the native backend uses for `requested` workers: the request
// itself, or — when the request is 0 — the PP_THREADS env var, else
// std::thread::hardware_concurrency(). Always >= 1.
unsigned resolve_native_workers(unsigned requested);

// Registry of idle pools keyed by width, handed out exclusively: while a
// lease holds a pool no other acquire() can return it. Pools are created
// on demand; *idle* pools are kept on a small LRU so repeated runs of the
// same width reuse threads, but a long-lived serving process that has
// seen many distinct widths does not hold worker threads forever — idle
// pools beyond `idle_cap()` are destroyed (threads joined), least
// recently used first. Leased pools are never evicted.
class pool_cache {
 public:
  static pool_cache& instance();

  // An idle pool of exactly `width` workers (creating one if necessary).
  // The caller owns it exclusively until release().
  work_stealing_pool* acquire(unsigned width);
  void release(work_stealing_pool* pool);

  // Introspection for tests: pools ever created (counter, survives
  // eviction) / currently idle.
  size_t pools_created() const;
  size_t pools_idle() const;

  // Pools currently alive (leased + idle). Bounded by
  // concurrent leases + idle_cap().
  size_t size() const;
  // Pools currently leased out (alive minus idle).
  size_t in_use() const;

  // The idle-pool LRU bound. Shrinking evicts immediately.
  size_t idle_cap() const;
  void set_idle_cap(size_t cap);

  // Total leases ever granted (acquire() calls). The honest amortization
  // metric for batching: a K-item registry::run_batch grants one lease
  // where a loop of K registry::run calls grants K.
  uint64_t acquires() const { return acquires_.load(std::memory_order_relaxed); }

 private:
  pool_cache() = default;

  // Pop evictees beyond `cap` off the LRU under m_; caller destroys them
  // (joins their threads) outside the lock.
  std::vector<std::unique_ptr<work_stealing_pool>> evict_locked(size_t cap) PP_REQUIRES(m_);

  mutable sync::mutex m_;
  // alive: leased + idle
  std::vector<std::unique_ptr<work_stealing_pool>> all_ PP_GUARDED_BY(m_);
  std::vector<work_stealing_pool*> idle_lru_ PP_GUARDED_BY(m_);  // back = most recent
  size_t idle_cap_ PP_GUARDED_BY(m_) = 8;
  size_t created_ PP_GUARDED_BY(m_) = 0;
  std::atomic<uint64_t> acquires_{0};
};

// RAII lease: acquires a pool of `width` workers from the cache and pins
// the constructing thread to its slot 0 until destruction. Must be
// destroyed on the thread that constructed it. The default-constructed
// lease holds nothing (used when the thread is already inside a pool).
class pool_lease {
 public:
  pool_lease() = default;
  explicit pool_lease(unsigned width);
  pool_lease(pool_lease&& o) noexcept : pool_(o.pool_) { o.pool_ = nullptr; }
  pool_lease& operator=(pool_lease&& o) noexcept {
    if (this != &o) {
      reset();
      pool_ = o.pool_;
      o.pool_ = nullptr;
    }
    return *this;
  }
  ~pool_lease() { reset(); }

  explicit operator bool() const { return pool_ != nullptr; }
  unsigned width() const { return pool_ ? pool_->num_workers() : 0; }

 private:
  void reset();
  work_stealing_pool* pool_ = nullptr;
};

}  // namespace pp::detail
