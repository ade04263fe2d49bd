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

  waiter w;
  w.cb = std::move(cb);
  w.deadline = req.deadline;
  w.prio = req.prio;
  w.submit_time = std::chrono::steady_clock::now();
  std::future<response> fut;
  if (!w.cb) fut = w.prom.get_future();
  // Fingerprint outside the lock: the canonicalization pass is O(input)
  // and must not serialize against executors sweeping the queues.
  result_key key{std::move(req.solver), fingerprint_of(req.input)};

  response hit;
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
      fail(w, "engine stopped");
      return fut;
    }
    key.seed = req.seed ? *req.seed : reserve_anonymous_seed();
    if (!cache_lookup_locked(key, hit)) {
      if (opts_.cache_entries > 0) count(ctr::cache_misses);
      exec_ptr& slot = inflight_[key];
      // Join the key's execution unless it is sealed with a cancel token:
      // the token fires at ITS waiters' latest deadline, and a joiner
      // outliving that would be poisoned by the shared cancellation. The
      // duplicate then executes fresh and takes over the slot, so later
      // duplicates join it instead.
      if (slot && !slot->use_token) {
        if (slot->queued && w.prio > slot->prio) {
          // An interactive waiter promotes a queued batch-class execution:
          // it pops (and coalesces) at the interactive class from now on.
          std::deque<exec_ptr>& q = queue_of(slot->prio);
          q.erase(std::find(q.begin(), q.end(), slot));
          slot->prio = w.prio;
          queue_of(w.prio).push_back(slot);
        }
        slot->waiters.push_back(std::move(w));
        // No notify: nothing new became runnable.
        count(ctr::deduped);
        return fut;
      }
      slot = std::make_shared<execution>(execution{key, std::move(req.input), w.prio, {}});
      slot->waiters.push_back(std::move(w));
      queue_of(slot->prio).push_back(slot);
      count(ctr::submitted);
      metrics::catalog::get().serve_queue_depth.set(static_cast<int64_t>(queued_locked()));
      lk.unlock();
      // notify_all, not notify_one: a single notify can be swallowed by an
      // executor coalescing a *different* solver inside its batch window
      // (it gathers nothing and re-waits), leaving an idle executor asleep
      // and this request stuck until that window expires.
      not_empty_.notify_all();
      return fut;
    }
  }
  // A cache hit, answered outside the lock.
  trace::instant("serve/cache_hit");
  count(ctr::cache_hits);
  count(ctr::completed);
  deliver(w, std::move(hit));
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

void engine::unregister_locked(const execution& e) {
  auto it = inflight_.find(e.key);
  if (it != inflight_.end() && it->second.get() == &e) inflight_.erase(it);
}

void engine::seal_locked(execution& e) {
  // A token cancels the solve for EVERY waiter at once, so the flush is
  // cancellable only when all waiters consent (each has a deadline); it
  // then fires at the latest one — the moment nobody can still want the
  // result. Mixed groups run uncancellable: one waiter's deadline never
  // poisons the others' shared execution.
  e.use_token = true;
  e.token_deadline = std::chrono::steady_clock::time_point::min();
  for (const waiter& w : e.waiters) {
    if (!w.deadline) {
      e.use_token = false;
      return;
    }
    e.token_deadline = std::max(e.token_deadline, *w.deadline);
  }
}

std::vector<engine::waiter> engine::finish_locked(execution& e, const response* ok) {
  unregister_locked(e);
  if (ok) cache_insert_locked(e.key, *ok);
  return std::exchange(e.waiters, {});
}

bool engine::sweep_locked(std::deque<exec_ptr>& q, std::vector<waiter>& dead,
                          std::chrono::steady_clock::time_point now) {
  const size_t before = q.size();
  for (auto it = q.begin(); it != q.end();) {
    std::vector<waiter>& ws = (*it)->waiters;
    for (auto w = ws.begin(); w != ws.end();) {
      if (is_expired(*w, now)) {
        dead.push_back(std::move(*w));
        w = ws.erase(w);
      } else {
        ++w;
      }
    }
    if (ws.empty()) {
      // Every waiter's deadline blew while queued: drop without a lease.
      unregister_locked(**it);
      it = q.erase(it);
    } else {
      ++it;
    }
  }
  return q.size() != before;
}

engine::exec_ptr engine::pop_head_locked(std::vector<waiter>& dead) {
  // Every pop sweeps expired waiters out of BOTH deques — not just the one
  // the head comes from. Under sustained interactive traffic the batch
  // deque might otherwise never be examined, leaving an expired batch
  // request unresolved (a hung future) while it pins bounded queue
  // capacity for work that can never run. O(queue) per pop, same bound the
  // gather sweep already pays.
  auto now = std::chrono::steady_clock::now();
  for (auto& q : queues_) sweep_locked(q, dead, now);
  for (size_t ci = 2; ci-- > 0;) {  // higher class first
    std::deque<exec_ptr>& q = queues_[ci];
    if (q.empty()) continue;
    exec_ptr head = std::move(q.front());
    q.pop_front();
    head->queued = false;
    return head;
  }
  return nullptr;
}

bool engine::gather_locked(std::deque<exec_ptr>& q, const std::string& solver,
                           std::vector<exec_ptr>& batch, std::vector<waiter>& dead) {
  bool removed = sweep_locked(q, dead, std::chrono::steady_clock::now());
  for (auto it = q.begin(); it != q.end() && batch.size() < opts_.max_batch;) {
    if ((*it)->key.solver != solver) {
      ++it;
      continue;
    }
    (*it)->queued = false;
    batch.push_back(std::move(*it));
    it = q.erase(it);
    removed = true;
  }
  return removed;
}

void engine::executor_loop() {
  for (;;) {
    std::vector<exec_ptr> batch;
    std::vector<waiter> dead;  // expired while queued; resolved below, leaseless
    {
      sync::unique_lock<sync::mutex> lk(m_);
      // Loop, not wait(lk, pred): see enqueue() — guarded reads must stay
      // inside the scope the analysis knows holds m_.
      while (!stopping_ && queued_locked() == 0) not_empty_.wait(lk);
      if (queued_locked() == 0) return;  // stopping_ && drained
      if (exec_ptr head = pop_head_locked(dead)) {
        // The head is out of the queue, so its class no longer changes.
        std::deque<exec_ptr>& q = queue_of(head->prio);
        batch.push_back(std::move(head));
        const std::string& solver = batch.front()->key.solver;

        // Sweep everything for this solver and class (a batch request must
        // never ride an interactive flush's lease) already waiting, then
        // keep the window open for late arrivals until the batch fills,
        // the window closes, or the engine is stopping (stop cuts windows
        // short so drain is prompt). Each sweep rescans the class deque
        // under m_ — O(queue) per window wakeup, which the operator bounds
        // via queue_capacity. Expired waiters encountered on the way are
        // dropped leaselessly like at pop time.
        {
          trace_span g("serve/gather");
          if (gather_locked(q, solver, batch, dead)) not_full_.notify_all();
          // Expiry path annotation: how many queued waiters this sweep
          // dropped for blown deadlines (leaseless "expired" responses).
          g.args("expired", dead.size());
        }
        if (opts_.batch_window.count() > 0) {
          // Coalesce: the batch-window wait for same-solver late arrivals.
          trace_span co("serve/coalesce");
          auto window_end = std::chrono::steady_clock::now() + opts_.batch_window;
          while (batch.size() < opts_.max_batch && !stopping_) {
            bool timeout = not_empty_.wait_until(lk, window_end) == std::cv_status::timeout;
            if (gather_locked(q, solver, batch, dead)) not_full_.notify_all();
            if (timeout) break;
          }
          co.args("batch", batch.size(), "expired", dead.size());
        }
        // The flush is decided: freeze each execution's cancellability.
        // Later joiners keep landing on uncancellable executions and are
        // answered at completion.
        for (auto& e : batch) seal_locked(*e);
      }
      metrics::catalog::get().serve_queue_depth.set(static_cast<int64_t>(queued_locked()));
    }
    not_full_.notify_all();
    for (auto& w : dead) deliver_expired(w);
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

void engine::execute(std::vector<exec_ptr> batch) {
  unsigned now = live_runs_.fetch_add(1, std::memory_order_relaxed) + 1;
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
  for (auto& e : batch) {
    inputs.push_back(std::move(e->input));
    opts.seeds.push_back(e->key.seed);
    if (e->use_token) any_token = true;
  }
  // Each cancellable item carries its own token, so a blown deadline
  // cancels exactly that item at its next phase boundary (or skips it
  // before it starts) while batchmates with live or absent deadlines
  // complete normally — one expired request never fails its flush. The
  // cancellability decision itself was sealed under m_ (an item with any
  // deadline-less waiter runs to completion; see seal_locked).
  if (any_token) {
    opts.tokens.reserve(batch.size());
    for (auto& e : batch)
      opts.tokens.push_back(e->use_token ? cancel_token::at(e->token_deadline) : cancel_token{});
  }

  auto t0 = std::chrono::steady_clock::now();
  size_t delivered = 0;  // entries already resolved; never re-delivered on error
  try {
    trace_span flush("serve/flush", "batch", batch.size());
    auto br = registry::run_batch(batch.front()->key.solver,
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
      response r;
      r.result = std::move(br.items[delivered]);
      const bool ok_item = !r.result.cancelled();
      if (!ok_item) r.error = "cancelled: deadline exceeded mid-run";
      // Unregister, collect every waiter, and cache a successful envelope
      // — atomically w.r.t. new submissions, so a duplicate arriving now
      // either finds the cache entry or queues a fresh execution; it can
      // never join a completed one.
      std::vector<waiter> waiters;
      {
        sync::lock_guard<sync::mutex> lk(m_);
        waiters = finish_locked(*batch[delivered], ok_item ? &r : nullptr);
      }
      // Fan the envelope out: one execution, every waiter answered. A
      // waiter whose deadline lapsed mid-run still gets the result — the
      // work is already paid for; deadlines shed queued work, not
      // finished envelopes.
      count(ok_item ? ctr::completed : ctr::cancelled, waiters.size());
      for (size_t i = 0; i < waiters.size(); ++i)
        deliver(waiters[i], i + 1 < waiters.size() ? response(r) : std::move(r));
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
  live_runs_.fetch_sub(1, std::memory_order_relaxed);
  metrics::catalog::get().serve_inflight.sub(1);
}

void engine::fail_from(std::vector<exec_ptr>& batch, size_t first, const char* what) {
  for (size_t i = first; i < batch.size(); ++i) {
    // A genuinely failed flush is a shared fact: every waiter gets the
    // same error (and nothing is cached).
    std::vector<waiter> waiters;
    {
      sync::lock_guard<sync::mutex> lk(m_);
      waiters = finish_locked(*batch[i], nullptr);
    }
    for (auto& w : waiters) fail(w, what);
  }
}

void engine::fail(waiter& w, const char* what) {
  count(ctr::failed);
  response r;
  r.error = what;
  deliver(w, std::move(r));
}

void engine::deliver(waiter& w, response&& r) {
  // Per-class submit-to-delivery latency (cache hits and errors count
  // too — the client waited exactly this long either way).
  auto usec = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - w.submit_time)
                  .count();
  metrics::catalog& m = metrics::catalog::get();
  (w.prio == priority::interactive ? m.serve_latency_interactive : m.serve_latency_batch)
      .observe(static_cast<uint64_t>(usec < 0 ? 0 : usec));
  if (w.cb) {
    detail::guarded_invoke(w.cb, std::move(r));
  } else {
    w.prom.set_value(std::move(r));
  }
}

void engine::deliver_expired(waiter& w) {
  // Expiry path annotation: how long the request sat queued before its
  // deadline blew (it never took a pool lease).
  trace::instant("serve/expired", "queued_usec",
                 static_cast<uint64_t>(std::max<int64_t>(
                     0, std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - w.submit_time)
                            .count())));
  count(ctr::expired);
  response r;
  r.error = "expired: deadline passed while queued";
  deliver(w, std::move(r));
}

void engine::stop(bool drain) {
  std::vector<waiter> orphans;
  {
    sync::lock_guard<sync::mutex> lk(m_);
    stopping_ = true;
    if (!drain) {
      for (auto& q : queues_) {
        for (auto& e : q) {
          unregister_locked(*e);
          for (auto& w : e->waiters) orphans.push_back(std::move(w));
        }
        q.clear();
      }
    }
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& w : orphans) fail(w, "engine stopped");
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
