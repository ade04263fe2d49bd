#include "parallel/scheduler.h"

#include <cassert>
#include <chrono>
#include <cstdlib>

#include "core/metrics.h"
#include "core/trace.h"

namespace pp::detail {

namespace {
// Which pool the calling thread works for, and its slot in that pool.
// Worker threads set these once at startup; a lease holder sets them in
// attach() and clears them in detach(). Keeping the pool pointer thread-
// local (rather than a process-wide "the" pool) is what lets concurrent
// runs on different pools fork and join without seeing each other.
thread_local work_stealing_pool* tl_pool = nullptr;
thread_local int tl_worker_id = -1;

unsigned env_or_hardware_workers() {
  if (const char* env = std::getenv("PP_THREADS")) {
    int v = std::atoi(env);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}
}  // namespace

work_stealing_pool* this_thread_pool() { return tl_pool; }

unsigned resolve_native_workers(unsigned requested) {
  if (requested >= 1) return requested;
  static const unsigned def = env_or_hardware_workers();
  return def;
}

work_stealing_pool::work_stealing_pool(unsigned nthreads) {
  if (nthreads < 1) nthreads = 1;
  deques_.reserve(nthreads);
  for (unsigned i = 0; i < nthreads; ++i) deques_.push_back(std::make_unique<deque_slot>());
  threads_.reserve(nthreads - 1);
  for (unsigned i = 1; i < nthreads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

work_stealing_pool::~work_stealing_pool() {
  {
    // Store under the sleep mutex so a worker between its parking
    // predicate check and the block cannot miss the shutdown notify.
    sync::lock_guard<sync::mutex> lk(sleep_m_);
    shutdown_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void work_stealing_pool::attach() {
  assert(tl_pool == nullptr && "thread already works for a pool");
  tl_pool = this;
  tl_worker_id = 0;
  {
    // The lock orders the flag flip against the workers' predicate check,
    // so a worker that just decided to park cannot miss the wake-up.
    sync::lock_guard<sync::mutex> lk(sleep_m_);
    active_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
}

void work_stealing_pool::detach() {
  assert(tl_pool == this && tl_worker_id == 0);
  active_.store(false, std::memory_order_release);
  tl_pool = nullptr;
  tl_worker_id = -1;
}

int work_stealing_pool::worker_id() const { return tl_pool == this ? tl_worker_id : -1; }

void work_stealing_pool::push(job* j) {
  int id = worker_id();
  // Unknown threads (never the case in-library: par_do attaches before the
  // first push) park their jobs on slot 0; worker 0 or a thief runs them.
  unsigned slot = id < 0 ? 0 : static_cast<unsigned>(id);
  {
    deque_slot& s = *deques_[slot];
    sync::lock_guard<sync::mutex> lk(s.m);
    s.q.push_back(j);
  }
  jobs_available_.fetch_add(1, std::memory_order_release);
  sleep_cv_.notify_one();
}

bool work_stealing_pool::try_pop_specific(job* j) {
  int id = worker_id();
  unsigned slot = id < 0 ? 0 : static_cast<unsigned>(id);
  deque_slot& s = *deques_[slot];
  sync::lock_guard<sync::mutex> lk(s.m);
  if (!s.q.empty() && s.q.back() == j) {
    s.q.pop_back();
    return true;
  }
  return false;
}

job* work_stealing_pool::try_pop_local(unsigned id) {
  deque_slot& s = *deques_[id];
  sync::lock_guard<sync::mutex> lk(s.m);
  if (s.q.empty()) return nullptr;
  job* j = s.q.back();
  s.q.pop_back();
  return j;
}

job* work_stealing_pool::try_steal(unsigned thief_id) {
  unsigned n = num_workers();
  if (n <= 1) return nullptr;
  // Cheap per-thread LCG for victim selection; statistical quality is
  // irrelevant here.
  thread_local uint64_t rng = 0x9e3779b97f4a7c15ull ^ (thief_id * 0xbf58476d1ce4e5b9ull + 1);
  for (unsigned attempt = 0; attempt < 2 * n; ++attempt) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    unsigned victim = static_cast<unsigned>((rng >> 33) % n);
    if (victim == thief_id) continue;
    deque_slot& s = *deques_[victim];
    if (!s.m.try_lock()) continue;
    job* j = nullptr;
    if (!s.q.empty()) {
      j = s.q.front();  // steal oldest = shallowest = biggest subtree
      s.q.pop_front();
    }
    s.m.unlock();
    if (j != nullptr) return j;
  }
  return nullptr;
}

void work_stealing_pool::wait_for(job& j) {
  int id = worker_id();
  unsigned self = id < 0 ? 0 : static_cast<unsigned>(id);
  unsigned idle_spins = 0;
  while (!j.done.load(std::memory_order_acquire)) {
    job* other = try_pop_local(self);
    if (other == nullptr) other = try_steal(self);
    if (other != nullptr) {
      other->execute();
      idle_spins = 0;
    } else if (++idle_spins < 64) {
      std::this_thread::yield();
    } else {
      // The job we are waiting for is running on another worker and there
      // is nothing to help with; back off briefly.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      idle_spins = 0;
    }
  }
}

void work_stealing_pool::worker_loop(unsigned id) {
  tl_pool = this;
  tl_worker_id = static_cast<int>(id);
  unsigned idle_spins = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    job* j = try_pop_local(id);
    if (j == nullptr) j = try_steal(id);
    if (j != nullptr) {
      j->execute();
      idle_spins = 0;
      continue;
    }
    if (++idle_spins < 64) {
      std::this_thread::yield();
    } else {
      uint64_t seen = jobs_available_.load(std::memory_order_acquire);
      sync::unique_lock<sync::mutex> lk(sleep_m_);
      if (!active_.load(std::memory_order_acquire)) {
        // The pool is idle in the cache (no lease holder): park until the
        // next attach instead of polling. A leased-but-quiet pool keeps
        // the short timed wait so a missed push notification costs at
        // most 1ms of steal latency.
        sleep_cv_.wait(lk, [&] {
          return shutdown_.load(std::memory_order_acquire) ||
                 active_.load(std::memory_order_acquire) ||
                 jobs_available_.load(std::memory_order_acquire) != seen;
        });
      } else {
        sleep_cv_.wait_for(lk, std::chrono::milliseconds(1));
      }
      idle_spins = 0;
    }
  }
}

pool_cache& pool_cache::instance() {
  static pool_cache* cache = new pool_cache();  // leaked: pools (and their
  // threads) stay valid for any static-destruction-order stragglers.
  return *cache;
}

work_stealing_pool* pool_cache::acquire(unsigned width) {
  if (width < 1) width = 1;
  acquires_.fetch_add(1, std::memory_order_relaxed);
  {
    sync::lock_guard<sync::mutex> lk(m_);
    // Most-recently-released match first (back of the LRU), so hot widths
    // stay warm and cold ones age toward eviction.
    for (size_t i = idle_lru_.size(); i-- > 0;) {
      if (idle_lru_[i]->num_workers() == width) {
        work_stealing_pool* p = idle_lru_[i];
        idle_lru_.erase(idle_lru_.begin() + static_cast<ptrdiff_t>(i));
        return p;
      }
    }
  }
  // Cache miss: spawn the new pool's threads outside the lock so a slow
  // construction never stalls concurrent acquires/releases. (size()/
  // in_use() don't see the pool until it lands in all_ below — a brief
  // under-report during construction, never an over-report.) created_ is
  // only counted once construction succeeded.
  auto fresh = std::make_unique<work_stealing_pool>(width);
  work_stealing_pool* p = fresh.get();
  sync::lock_guard<sync::mutex> lk(m_);
  ++created_;
  all_.push_back(std::move(fresh));
  return p;
}

void pool_cache::release(work_stealing_pool* pool) {
  std::vector<std::unique_ptr<work_stealing_pool>> evicted;
  {
    sync::lock_guard<sync::mutex> lk(m_);
    idle_lru_.push_back(pool);
    evicted = evict_locked(idle_cap_);
  }
  // Destruction joins the evicted pools' worker threads; do it outside the
  // lock so concurrent acquires/releases never wait on thread teardown.
  evicted.clear();
}

std::vector<std::unique_ptr<work_stealing_pool>> pool_cache::evict_locked(size_t cap) {
  std::vector<std::unique_ptr<work_stealing_pool>> out;
  while (idle_lru_.size() > cap) {
    work_stealing_pool* victim = idle_lru_.front();  // least recently used
    idle_lru_.erase(idle_lru_.begin());
    for (auto it = all_.begin(); it != all_.end(); ++it) {
      if (it->get() == victim) {
        out.push_back(std::move(*it));
        all_.erase(it);
        break;
      }
    }
  }
  return out;
}

size_t pool_cache::pools_created() const {
  sync::lock_guard<sync::mutex> lk(m_);
  return created_;
}

size_t pool_cache::pools_idle() const {
  sync::lock_guard<sync::mutex> lk(m_);
  return idle_lru_.size();
}

size_t pool_cache::size() const {
  sync::lock_guard<sync::mutex> lk(m_);
  return all_.size();
}

size_t pool_cache::in_use() const {
  sync::lock_guard<sync::mutex> lk(m_);
  return all_.size() - idle_lru_.size();
}

size_t pool_cache::idle_cap() const {
  sync::lock_guard<sync::mutex> lk(m_);
  return idle_cap_;
}

void pool_cache::set_idle_cap(size_t cap) {
  std::vector<std::unique_ptr<work_stealing_pool>> evicted;
  {
    sync::lock_guard<sync::mutex> lk(m_);
    idle_cap_ = cap;
    evicted = evict_locked(idle_cap_);
  }
  evicted.clear();
}

pool_lease::pool_lease(unsigned width) {
  assert(tl_pool == nullptr && "cannot lease a pool from inside another pool");
  trace_span span("pool/lease_acquire", "width", width);
  metrics::catalog::get().pool_leases.inc();
  pool_ = pool_cache::instance().acquire(width);
  pool_->attach();
}

void pool_lease::reset() {
  if (pool_ == nullptr) return;
  pool_->detach();
  pool_cache::instance().release(pool_);
  pool_ = nullptr;
}

}  // namespace pp::detail
