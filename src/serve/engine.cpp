#include "serve/engine.h"

#include <algorithm>
#include <cstdio>
#include <span>
#include <utility>

#include "core/json.h"
#include "core/metrics.h"
#include "core/trace.h"

namespace pp::serve {

namespace detail {
// Invoke a user response callback with exception isolation: a throwing
// callback must neither escape an executor std::thread (std::terminate)
// nor propagate out of submit() on the admission-rejection path, and must
// not trip the batch error path into re-delivering batchmates' promises.
inline void guarded_invoke(const std::function<void(response)>& cb, response&& r) {
  try {
    cb(std::move(r));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pp::serve: response callback threw: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "pp::serve: response callback threw\n");
  }
}
}  // namespace detail

namespace {

// Resolve the 0 = "partition the machine evenly" default.
unsigned resolve_workers_per_run(unsigned requested, unsigned max_inflight) {
  if (requested >= 1) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  unsigned share = hw / (max_inflight == 0 ? 1 : max_inflight);
  return share == 0 ? 1 : share;
}

std::future<response> ready_error(std::string err, const std::function<void(response)>& cb) {
  response r;
  r.error = std::move(err);
  if (cb) {
    detail::guarded_invoke(cb, std::move(r));
    return {};
  }
  std::promise<response> prom;
  auto fut = prom.get_future();
  prom.set_value(std::move(r));
  return fut;
}

}  // namespace

engine::engine(engine_options opt) : opts_(std::move(opt)) {
  if (opts_.max_inflight_runs == 0) opts_.max_inflight_runs = 1;
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  exec_ctx_ = opts_.ctx.with_workers(
      resolve_workers_per_run(opts_.workers_per_run, opts_.max_inflight_runs));
  executors_.reserve(opts_.max_inflight_runs);
  for (unsigned i = 0; i < opts_.max_inflight_runs; ++i)
    executors_.emplace_back([this] { executor_loop(); });
}

engine::~engine() { stop(/*drain=*/true); }

std::future<response> engine::submit(request req) {
  return enqueue(std::move(req), nullptr);
}

void engine::submit(request req, std::function<void(response)> cb) {
  enqueue(std::move(req), std::move(cb));
}

std::future<response> engine::enqueue(request&& req, std::function<void(response)> cb) {
  // Validate at admission, not execution: a coalesced batch is one
  // registry::run_batch call, and one malformed request must not fail its
  // batchmates.
  const solver_info* si = registry::instance().info(req.solver);
  if (si == nullptr) {
    count(ctr::failed);
    return ready_error("unknown solver '" + req.solver + "'", cb);
  }
  if (si->problem != problem_name_of(req.input)) {
    count(ctr::failed);
    return ready_error("solver '" + req.solver + "' expects a '" + si->problem +
                           "' input, got '" + std::string(problem_name_of(req.input)) + "'",
                       cb);
  }
  // A deadline already in the past never enters the queue: reject it here
  // (an `expired` response) instead of letting it occupy bounded capacity
  // just to be dropped at pop time.
  if (req.deadline && *req.deadline <= std::chrono::steady_clock::now()) {
    count(ctr::expired);
    return ready_error("expired: deadline passed before admission", cb);
  }

  pending p;
  p.solver = std::move(req.solver);
  p.input = std::move(req.input);
  p.submit_time = std::chrono::steady_clock::now();
  p.deadline = req.deadline;
  p.prio = req.prio;
  p.session = std::move(req.session);
  p.cb = std::move(cb);
  // Fingerprint outside the lock: the canonicalization pass is O(input)
  // and must not serialize against executors sweeping the queues.
  p.fp = fingerprint_of(p.input);
  std::future<response> fut;
  if (!p.cb) fut = p.prom.get_future();

  response hit;
  bool from_cache = false;
  {
    sync::unique_lock<sync::mutex> lk(m_);
    {
      // Backpressure wait: how long admission blocked on a full queue.
      trace_span qw("serve/queue_wait");
      // Spelled as a loop, not wait(lk, pred): the predicate reads
      // m_-guarded state, and a lambda is analyzed by -Wthread-safety as a
      // separate function that cannot see the lock is held at the call site.
      while (!stopping_ && queued_locked() >= opts_.queue_capacity) not_full_.wait(lk);
    }
    if (stopping_) {
      lk.unlock();
      response r;
      r.error = "engine stopped";
      count(ctr::failed);
      deliver(p, std::move(r));
      return fut;
    }
    p.seed = req.seed ? *req.seed : reserve_anonymous_seed();
    if (cache_lookup_locked(key_of(p), hit)) {
      from_cache = true;  // delivered below, outside the lock
    } else {
      if (opts_.cache_entries > 0) count(ctr::cache_misses);
      if (attach_dup_locked(p)) {
        // Collapsed onto an identical execution: no queue entry, no
        // notify (nothing new became runnable).
        count(ctr::deduped);
        return fut;
      }
      if (!p.session.empty()) {
        // Take a position in the session's admission order. Dedup waiters
        // above never reach here: they ride their leader's position, and
        // content addressing makes their envelope order-independent.
        session_state& ss = sessions_[p.session];
        p.session_seq = ss.next_seq++;
        ss.queued.push_back(p.session_seq);
      }
      queues_[queue_index(p.prio)].push_back(std::move(p));
      count(ctr::submitted);
      metrics::catalog::get().serve_queue_depth.set(
          static_cast<int64_t>(queued_locked()));
    }
  }
  if (from_cache) {
    trace::instant("serve/cache_hit");
    count(ctr::cache_hits);
    count(ctr::completed);
    deliver(p, std::move(hit));
    return fut;
  }
  // notify_all, not notify_one: a single notify can be swallowed by an
  // executor coalescing a *different* solver inside its batch window (it
  // gathers nothing and re-waits), leaving an idle executor asleep and
  // this request stuck until that window expires.
  not_empty_.notify_all();
  return fut;
}

bool engine::cache_lookup_locked(const result_key& k, response& out) {
  if (opts_.cache_entries == 0) return false;
  auto it = cache_.find(k);
  if (it == cache_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  out = it->second->resp;
  out.cached = true;
  return true;
}

void engine::cache_insert_locked(const result_key& k, const response& r) {
  if (opts_.cache_entries == 0) return;
  auto it = cache_.find(k);
  if (it != cache_.end()) {
    // Determinism: the stored envelope already IS this result. Touch it.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= opts_.cache_entries) {
    cache_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(cache_entry{k, r});
  cache_.emplace(k, lru_.begin());
}

bool engine::attach_dup_locked(pending& w) {
  // Queued leaders first. O(queue) scan — the same bound every pop-time
  // sweep already pays, and capped by queue_capacity.
  for (size_t ci = 0; ci < 2; ++ci) {
    std::deque<pending>& q = queues_[ci];
    for (auto it = q.begin(); it != q.end(); ++it) {
      pending& e = *it;
      if (e.solver != w.solver || e.fp != w.fp || e.seed != w.seed) continue;
      size_t want = queue_index(w.prio);
      if (want > ci) {
        // Priority classes respected: an interactive duplicate of a
        // batch-class leader promotes the whole group — it pops (and
        // coalesces) at the interactive class from now on, instead of the
        // interactive waiter queuing behind batch traffic.
        e.prio = w.prio;
        e.followers.push_back(std::move(w));
        queues_[want].push_back(std::move(e));
        q.erase(it);
      } else {
        e.followers.push_back(std::move(w));
      }
      return true;
    }
  }
  // Then executions in their window or mid-run — but never a cancellable
  // flush: its token fires at ITS waiters' latest deadline, and a joiner
  // outliving that would be poisoned by the shared cancellation. Such a
  // duplicate queues its own execution instead (correct, just uncollapsed).
  auto it = running_.find(result_key{w.solver, w.fp, w.seed});
  if (it != running_.end() && !(it->second->started && it->second->cancellable)) {
    it->second->waiters.push_back(std::move(w));
    return true;
  }
  return false;
}

void engine::register_running_locked(pending& p) {
  auto [it, inserted] = running_.try_emplace(key_of(p), nullptr);
  if (!inserted) return;  // a cancellable twin is already running; stay invisible
  it->second = std::make_shared<fanout>();
  p.fan = it->second;
}

void engine::seal_for_flush_locked(pending& p) {
  if (p.fan) {
    for (auto& w : p.fan->waiters) p.followers.push_back(std::move(w));
    p.fan->waiters.clear();
  }
  // A token cancels the solve for EVERY waiter at once, so the flush is
  // cancellable only when all waiters consent (each has a deadline); it
  // then fires at the latest one — the moment nobody can still want the
  // result. Mixed groups run uncancellable: one waiter's deadline never
  // poisons the others' shared execution.
  bool all = p.deadline.has_value();
  auto latest = p.deadline.value_or(std::chrono::steady_clock::time_point::min());
  for (const auto& f : p.followers) {
    if (!f.deadline) {
      all = false;
      break;
    }
    latest = std::max(latest, *f.deadline);
  }
  p.use_token = all;
  if (all) p.token_deadline = latest;
  if (p.fan) {
    p.fan->started = true;
    p.fan->cancellable = all;
  }
}

void engine::finish_running_locked(pending& p, const response* ok, std::vector<pending>& out) {
  if (p.fan) {
    auto it = running_.find(key_of(p));
    // Identity check: a later execution of the same key may have
    // registered its own slot; never erase someone else's.
    if (it != running_.end() && it->second == p.fan) running_.erase(it);
    for (auto& w : p.fan->waiters) out.push_back(std::move(w));
    p.fan->waiters.clear();
    p.fan.reset();
  }
  for (auto& f : p.followers) out.push_back(std::move(f));
  p.followers.clear();
  if (ok) cache_insert_locked(key_of(p), *ok);
}

bool engine::sweep_entry_locked(pending& p, std::vector<pending>& dead,
                                std::chrono::steady_clock::time_point now) {
  for (auto it = p.followers.begin(); it != p.followers.end();) {
    if (is_expired(*it, now)) {
      dead.push_back(std::move(*it));
      it = p.followers.erase(it);
    } else {
      ++it;
    }
  }
  if (!is_expired(p, now)) return false;
  if (p.followers.empty()) return true;
  // The leader expired but other waiters still want this execution: hand
  // the role (input, fingerprint, seed, remaining followers — all shared
  // by key equality) to the first survivor and expire only the old
  // leader's promise.
  pending corpse;
  corpse.solver = p.solver;
  corpse.deadline = p.deadline;
  corpse.prom = std::move(p.prom);
  corpse.cb = std::move(p.cb);
  dead.push_back(std::move(corpse));
  pending& heir = p.followers.front();
  p.prom = std::move(heir.prom);
  p.cb = std::move(heir.cb);
  p.deadline = heir.deadline;
  p.followers.erase(p.followers.begin());
  return false;
}

bool engine::session_eligible_locked(const pending& p, uint64_t tag) const {
  if (p.session.empty()) return true;
  auto it = sessions_.find(p.session);
  if (it == sessions_.end()) return true;  // order book dropped (stop): run freely
  const session_state& ss = it->second;
  if (ss.queued.empty() || ss.queued.front() != p.session_seq) return false;
  return ss.live == 0 || ss.owner == tag;
}

void engine::session_claim_locked(const pending& p, uint64_t tag) {
  if (p.session.empty()) return;
  auto it = sessions_.find(p.session);
  if (it == sessions_.end()) return;
  session_state& ss = it->second;
  ss.queued.pop_front();
  ++ss.live;
  ss.owner = tag;
}

void engine::session_release_queued_locked(const pending& p) {
  if (p.session.empty()) return;
  auto it = sessions_.find(p.session);
  if (it == sessions_.end()) return;
  session_state& ss = it->second;
  // Out-of-order erase: an expired entry dies from the middle of the
  // admission order, unblocking its successors.
  auto q = std::find(ss.queued.begin(), ss.queued.end(), p.session_seq);
  if (q != ss.queued.end()) ss.queued.erase(q);
  if (ss.queued.empty() && ss.live == 0) sessions_.erase(it);
}

void engine::session_release_flushed_locked(const pending& p) {
  if (p.session.empty()) return;
  auto it = sessions_.find(p.session);
  if (it == sessions_.end()) return;
  session_state& ss = it->second;
  if (ss.live > 0) --ss.live;
  if (ss.live == 0) {
    ss.owner = 0;
    if (ss.queued.empty()) sessions_.erase(it);
  }
}

bool engine::pop_head_locked(std::vector<pending>& dead, pending& head, uint64_t tag) {
  auto now = std::chrono::steady_clock::now();
  // Every pop sweeps expired entries out of BOTH deques — not just the
  // one the head comes from. Under sustained interactive traffic the
  // batch deque might otherwise never be examined, leaving an expired
  // batch request unresolved (a hung future) while it pins bounded queue
  // capacity for work that can never run. O(queue) per pop, same bound
  // the gather sweep already pays. The sweep is per-waiter: an entry with
  // surviving dedup followers outlives its own leader's deadline.
  for (auto& q : queues_) {
    for (auto it = q.begin(); it != q.end();) {
      if (sweep_entry_locked(*it, dead, now)) {
        // Every waiter's deadline blew while queued: drop without a pool
        // lease (and free its session position — successors unblock).
        session_release_queued_locked(*it);
        dead.push_back(std::move(*it));
        it = q.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Higher class first. With priority_classes off everything lives in
  // queues_[0], so the order collapses to plain FIFO. Session-blocked
  // entries (an earlier entry of their session is queued ahead or mid
  // flush) are skipped in place — they keep their FIFO slot, later
  // traffic flows around them.
  for (size_t ci = 2; ci-- > 0;) {
    std::deque<pending>& q = queues_[ci];
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (!session_eligible_locked(*it, tag)) continue;
      head = std::move(*it);
      q.erase(it);
      session_claim_locked(head, tag);
      return true;
    }
  }
  return false;
}

bool engine::gather_locked(std::deque<pending>& q, const std::string& solver, priority cls,
                           uint64_t tag, std::vector<pending>& batch, std::vector<pending>& dead) {
  bool removed = false;
  auto now = std::chrono::steady_clock::now();
  for (auto it = q.begin(); it != q.end() && batch.size() < opts_.max_batch;) {
    if (sweep_entry_locked(*it, dead, now)) {
      session_release_queued_locked(*it);
      dead.push_back(std::move(*it));
      it = q.erase(it);
      removed = true;
    } else if (it->solver == solver && (!opts_.priority_classes || it->prio == cls) &&
               session_eligible_locked(*it, tag)) {
      // Consecutive entries of one session coalesce into THIS flush in
      // admission order (claiming seq k makes k+1 the session head, and
      // the deque scan reaches k+1 after k); run_batch executes items
      // as given, so in-flush order is preserved too.
      session_claim_locked(*it, tag);
      batch.push_back(std::move(*it));
      register_running_locked(batch.back());
      it = q.erase(it);
      removed = true;
    } else {
      ++it;
    }
  }
  return removed;
}

void engine::executor_loop() {
  for (;;) {
    std::vector<pending> batch;
    std::vector<pending> dead;  // expired while queued; resolved below, leaseless
    {
      sync::unique_lock<sync::mutex> lk(m_);
      // Loop, not wait(lk, pred): see enqueue() — guarded reads must stay
      // inside the scope the analysis knows holds m_.
      while (!stopping_ && queued_locked() == 0) not_empty_.wait(lk);
      if (queued_locked() == 0) return;  // stopping_ && drained
      pending head;
      // This iteration's flush identity: session entries claimed under one
      // tag (the popped head and its gathered session-mates) share one
      // flush; a different tag must wait for their release.
      const uint64_t tag = ++flush_tag_;
      if (pop_head_locked(dead, head, tag)) {
        batch.push_back(std::move(head));
        register_running_locked(batch.back());
        // By value: growing `batch` reallocates and would invalidate a
        // reference into batch.front().
        const std::string solver = batch.front().solver;
        const priority cls = batch.front().prio;

        // Sweep everything for this solver (and, with QoS on, this class —
        // a batch request must never ride an interactive flush's lease)
        // already waiting, then keep the window open for late arrivals
        // until the batch fills, the window closes, or the engine is
        // stopping (stop cuts windows short so drain is prompt). Each
        // sweep rescans the class deque under m_ — O(queue) per window
        // wakeup, which the operator bounds via queue_capacity. Expired
        // entries encountered on the way are dropped leaselessly like at
        // pop time.
        std::deque<pending>& q = queues_[queue_index(cls)];
        {
          trace_span g("serve/gather");
          if (gather_locked(q, solver, cls, tag, batch, dead)) not_full_.notify_all();
          // Expiry path annotation: how many queued waiters this sweep
          // dropped for blown deadlines (leaseless "expired" responses).
          g.args("expired", dead.size());
        }
        if (opts_.batch_window.count() > 0) {
          // Coalesce: the batch-window wait for same-solver late arrivals.
          trace_span co("serve/coalesce");
          auto window_end = std::chrono::steady_clock::now() + opts_.batch_window;
          while (batch.size() < opts_.max_batch && !stopping_) {
            if (not_empty_.wait_until(lk, window_end) == std::cv_status::timeout) {
              if (gather_locked(q, solver, cls, tag, batch, dead)) not_full_.notify_all();
              break;
            }
            if (gather_locked(q, solver, cls, tag, batch, dead)) not_full_.notify_all();
          }
          co.args("batch", batch.size(), "expired", dead.size());
        }
        // The flush is decided: freeze each entry's cancellability and
        // absorb window-time joiners. Post-seal joiners keep accumulating
        // in the fanout (uncancellable flushes only) and are delivered at
        // completion.
        for (auto& p : batch) seal_for_flush_locked(p);
      } else if (queued_locked() > 0) {
        // Nothing runnable but the queue is non-empty: everything left is
        // session-blocked behind an in-flight flush. Sleep until a release
        // notification (or a short timeout as a missed-wakeup backstop)
        // instead of spinning on the pop.
        not_empty_.wait_for(lk, std::chrono::milliseconds(1));
      }
      metrics::catalog::get().serve_queue_depth.set(
          static_cast<int64_t>(queued_locked()));
    }
    not_full_.notify_all();
    for (auto& p : dead) deliver_expired(p);
    if (batch.empty()) {
      // Everything we popped had expired; go back to waiting (or exit if
      // the engine is stopping and the queues drained meanwhile).
      sync::lock_guard<sync::mutex> lk(m_);
      if (stopping_ && queued_locked() == 0) return;
      continue;
    }
    // A same-solver request arriving while we execute is picked up by
    // another executor (or by us on the next loop) — the queue is never
    // blocked on a running batch.
    execute(std::move(batch));
  }
}

void engine::execute(std::vector<pending> batch) {
  unsigned now = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  metrics::catalog::get().serve_inflight.add(1);
  metrics::catalog::get().serve_batch_size.observe(batch.size());
  unsigned peak = peak_inflight_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_inflight_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }

  std::vector<problem_input> inputs;
  inputs.reserve(batch.size());
  batch_options opts;
  opts.seeds.reserve(batch.size());
  bool any_token = false;
  for (auto& p : batch) {
    inputs.push_back(std::move(p.input));
    opts.seeds.push_back(p.seed);
    if (p.use_token) any_token = true;
  }
  // Each cancellable item carries its own token, so a blown deadline
  // cancels exactly that item at its next phase boundary (or skips it
  // before it starts) while batchmates with live or absent deadlines
  // complete normally — one expired request never fails its flush. The
  // cancellability decision itself was sealed under m_ (an item with any
  // deadline-less waiter runs to completion; see seal_for_flush_locked).
  if (any_token) {
    opts.tokens.reserve(batch.size());
    for (auto& p : batch)
      opts.tokens.push_back(p.use_token ? cancel_token::at(p.token_deadline) : cancel_token{});
  }

  auto t0 = std::chrono::steady_clock::now();
  size_t delivered = 0;  // entries already resolved; never re-delivered on error
  try {
    trace_span flush("serve/flush", "batch", batch.size());
    auto br = registry::run_batch(batch.front().solver,
                                  std::span<const problem_input>(inputs), exec_ctx_, opts);
    // Cancellation path annotation: items whose deadline token fired
    // mid-run (the solve unwound at a phase boundary, batchmates intact).
    size_t cancelled_items = 0;
    for (const auto& item : br.items)
      if (item.cancelled()) ++cancelled_items;
    flush.args("batch", batch.size(), "cancelled", cancelled_items);
    flush.end();
    exec_nanos_.fetch_add(
        static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count()),
        std::memory_order_relaxed);
    count(ctr::batches);
    if (batch.size() > 1) count(ctr::batched, batch.size());
    for (; delivered < batch.size(); ++delivered) {
      pending& p = batch[delivered];
      response r;
      r.result = std::move(br.items[delivered]);
      const bool ok_item = !r.result.cancelled();
      if (!ok_item) r.error = "cancelled: deadline exceeded mid-run";
      // Unregister the dedup slot, collect every waiter, and cache a
      // successful envelope — atomically w.r.t. new submissions, so a
      // duplicate arriving now either finds the cache entry or queues a
      // fresh execution; it can never join a completed fanout.
      std::vector<pending> waiters;
      {
        sync::lock_guard<sync::mutex> lk(m_);
        finish_running_locked(p, ok_item ? &r : nullptr, waiters);
        session_release_flushed_locked(p);
      }
      // Fan the envelope out: one execution, every waiter answered. A
      // waiter whose deadline lapsed mid-run still gets the result — the
      // work is already paid for; deadlines shed queued work, not
      // finished envelopes.
      for (auto& w : waiters) {
        response copy = r;
        count(ok_item ? ctr::completed : ctr::cancelled);
        deliver(w, std::move(copy));
      }
      count(ok_item ? ctr::completed : ctr::cancelled);
      deliver(p, std::move(r));
    }
  } catch (const std::exception& e) {
    // Admission-time validation makes this unreachable for well-formed
    // requests; a solver throwing mid-batch fails the whole flush — but
    // only the entries not already resolved above.
    fail_from(batch, delivered, e.what());
  } catch (...) {
    // A non-std exception escaping the executor std::thread would
    // std::terminate the whole process; fail the flush instead.
    fail_from(batch, delivered, "solver threw a non-std exception");
  }
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  metrics::catalog::get().serve_inflight.sub(1);
  // Session releases above may have unblocked a skipped entry; wake
  // executors parked on the session-blocked wait.
  not_empty_.notify_all();
}

void engine::fail_from(std::vector<pending>& batch, size_t first, const char* what) {
  for (size_t i = first; i < batch.size(); ++i) {
    // A genuinely failed flush is a shared fact: every deduped waiter
    // gets the same error its leader does (and nothing is cached).
    std::vector<pending> waiters;
    {
      sync::lock_guard<sync::mutex> lk(m_);
      finish_running_locked(batch[i], nullptr, waiters);
      session_release_flushed_locked(batch[i]);
    }
    count(ctr::failed, 1 + waiters.size());
    for (auto& w : waiters) {
      response r;
      r.error = what;
      deliver(w, std::move(r));
    }
    response r;
    r.error = what;
    deliver(batch[i], std::move(r));
  }
}

void engine::deliver(pending& p, response&& r) {
  // Per-class submit-to-delivery latency (cache hits and errors count
  // too — the client waited exactly this long either way). Entries that
  // never passed admission have a zero submit_time and are skipped.
  if (p.submit_time.time_since_epoch().count() != 0) {
    auto usec = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - p.submit_time)
                    .count();
    metrics::catalog& m = metrics::catalog::get();
    (p.prio == priority::interactive ? m.serve_latency_interactive : m.serve_latency_batch)
        .observe(static_cast<uint64_t>(usec < 0 ? 0 : usec));
  }
  if (p.cb) {
    detail::guarded_invoke(p.cb, std::move(r));
  } else {
    p.prom.set_value(std::move(r));
  }
}

void engine::deliver_expired(pending& p) {
  // Expiry path annotation: how long the request sat queued before its
  // deadline blew (it never took a pool lease).
  trace::instant("serve/expired", "queued_usec",
                 static_cast<uint64_t>(std::max<int64_t>(
                     0, std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - p.submit_time)
                            .count())));
  count(ctr::expired);
  response r;
  r.error = "expired: deadline passed while queued";
  deliver(p, std::move(r));
}

void engine::stop(bool drain) {
  std::deque<pending> orphans;
  {
    sync::lock_guard<sync::mutex> lk(m_);
    stopping_ = true;
    if (!drain) {
      for (auto& q : queues_) {
        for (auto& p : q) orphans.push_back(std::move(p));
        q.clear();
      }
      // The orphans' session positions die with them. In-flight flushes
      // release against the (now absent) books as no-ops.
      sessions_.clear();
    }
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& p : orphans) {
    // Dedup waiters orphan along with their leader.
    for (auto& f : p.followers) {
      response r;
      r.error = "engine stopped";
      count(ctr::failed);
      deliver(f, std::move(r));
    }
    response r;
    r.error = "engine stopped";
    count(ctr::failed);
    deliver(p, std::move(r));
  }
  std::call_once(join_once_, [&] {
    for (auto& t : executors_) t.join();
  });
}

void engine::count(ctr c, uint64_t n) {
  counts_[static_cast<size_t>(c)].fetch_add(n, std::memory_order_relaxed);
  // The catalogued twin of each counter, or null for an engine-only one.
#define PP_PROCESS_COUNTER(type, name, ...) &metrics::catalog::get().serve_##name,
#define PP_NO_PROCESS_COUNTER(type, name) nullptr,
  static metrics::counter* const process[] = {
      PP_SERVE_COUNTERS(PP_PROCESS_COUNTER, PP_NO_PROCESS_COUNTER)};
#undef PP_PROCESS_COUNTER
#undef PP_NO_PROCESS_COUNTER
  if (metrics::counter* m = process[static_cast<size_t>(c)]) m->inc(n);
}

engine_stats engine::stats() const {
  engine_stats s;
#define PP_LOAD_COUNTER(type, name, ...) \
  s.name = counts_[static_cast<size_t>(ctr::name)].load(std::memory_order_relaxed);
  PP_SERVE_COUNTERS(PP_LOAD_COUNTER, PP_LOAD_COUNTER)
#undef PP_LOAD_COUNTER
  s.peak_inflight = peak_inflight_.load(std::memory_order_relaxed);
  s.exec_seconds = static_cast<double>(exec_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  sync::lock_guard<sync::mutex> lk(m_);
  s.queue_depth = queued_locked();
  return s;
}

void write_fields(json::writer& w, const engine_stats& r) {
  PP_WRITE_FIELDS(PP_ENGINE_STATS_FIELDS)
}

std::string to_json(const engine_stats& s) { return json::writer().value(s).str(); }

}  // namespace pp::serve
