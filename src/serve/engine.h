// pp::serve — asynchronous serving engine over the solver registry.
//
// The registry gave every phase-parallel algorithm one synchronous dispatch
// surface (run / run_batch); this subsystem multiplexes many concurrent
// *clients* onto it, which is the ROADMAP serving shape: requests arrive
// faster than one blocking caller could issue them, and throughput is
// governed by how they are admitted to workers, not just by per-run
// parallelism.
//
//   pp::serve::engine eng({.max_inflight_runs = 2, .workers_per_run = 4});
//   auto fut = eng.submit({.solver = "lis/parallel", .input = in, .seed = 7});
//   pp::serve::response r = fut.get();   // r.result is a run_result envelope
//
// The mechanisms:
//
//  * Admission control. Clients enqueue into a bounded MPMC queue (submit
//    blocks when it is full — backpressure, not unbounded buffering). A
//    fixed set of `max_inflight_runs` executor threads drains it, so at
//    most that many run_scopes — and therefore at most that many exclusive
//    pool_cache leases of `workers_per_run` workers each — are ever live.
//    Concurrent runs *partition* the machine (R pools of W workers)
//    instead of oversubscribing it.
//
//  * Dynamic micro-batching. An executor that pops a request waits up to
//    `batch_window` for more requests naming the same solver (up to
//    `max_batch`), then executes them as ONE registry::run_batch — one
//    pool lease, one scheduler binding — and demultiplexes the per-item
//    envelopes back to the individual futures. Each request executes under
//    its own seed (batch_options::seeds), so a coalesced submit returns
//    bit-for-bit what a standalone registry::run under that seed returns.
//
//  * Content addressing (dedup + result cache). Every run is deterministic
//    given (solver, input, seed), so the engine fingerprints each input at
//    admission (core/fingerprint.h) and treats (solver, fingerprint, seed)
//    as the address of its result. Each execution keeps one list of
//    waiters and is registered under its address from admission until it
//    completes: an identical submission is one map lookup that adds a
//    waiter, whether the execution is queued, in its batch window or
//    running — one pool lease, the envelope fanned out to every waiter.
//    A bounded LRU of recent envelopes answers repeat traffic at submit
//    time with zero queue slots and zero leases (`response::cached`). See
//    engine_options::cache_entries and the cache_hits/cache_misses/deduped
//    counters.
//
//  * QoS. Requests carry a priority class and an optional deadline.
//    Interactive requests pop before batch requests (FIFO within a
//    class), coalescing never crosses classes, and an interactive
//    duplicate promotes a queued batch-class execution. A waiter whose
//    deadline passes while its execution is queued is dropped at pop time
//    (`expired`); the execution is dropped, without taking a pool lease,
//    only when its last waiter expires. An in-flight execution whose
//    waiters all have deadlines carries a pp::cancel_token, so a blown
//    deadline unwinds its solve at the next phase boundary (`cancelled`)
//    while unexpired batchmates complete.
//
// Every batch executes under the engine's single execution profile
// (options::ctx + workers_per_run), with a per-item seed. Each executor's
// run_scope installs its batch's context on that executor's thread and on
// the workers of the pool it leases, so concurrent executors never observe
// each other's settings. Requests carry solver + input + seed only;
// backend/width policy belongs to the server operator, as in any serving
// system.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/annotations.h"
#include "core/context.h"
#include "core/fields.h"
#include "core/fingerprint.h"
#include "core/metrics.h"
#include "core/registry.h"
#include "core/result.h"

namespace pp::serve {

// QoS class of a request. Higher classes pop first (same-class requests
// stay FIFO), and micro-batching coalesces only within a class, so a
// batch request can never ride an interactive flush's pool lease.
enum class priority : uint8_t {
  batch = 0,        // throughput traffic; yields to interactive
  interactive = 1,  // latency-sensitive; jumps the admission queue
};

inline const char* priority_name(priority p) {
  return p == priority::interactive ? "interactive" : "batch";
}

inline std::optional<priority> parse_priority(std::string_view s) {
  if (s == "interactive") return priority::interactive;
  if (s == "batch") return priority::batch;
  return std::nullopt;
}

// One unit of client work: a registered solver plus the input it consumes.
// `seed` empty = the engine derives one from its base seed and a
// daemon-wide anonymous counter via pp::derive_seed — the same per-item
// rule run_batch uses, so a stream of anonymous requests is reproducible
// from the engine's base seed alone (and two concurrent clients can never
// collide on a derived seed).
//
// `deadline` empty = run to completion. Set, it is enforced at two points:
// a request still queued past its deadline is dropped at pop time (an
// `expired` response, zero pool leases), and an in-flight request carries
// a pp::cancel_token that cancels its solve at the next phase boundary
// (a `cancelled` response) — batchmates with live deadlines are unaffected.
struct request {
  std::string solver;
  problem_input input;
  std::optional<uint64_t> seed;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  priority prio = priority::interactive;
};

struct response {
  run_result<solver_value> result{};  // filled when ok()
  std::string error;                  // empty = success
  // True when the envelope was answered from the result cache: a copy of
  // a previous execution's envelope (including its seconds/stats — they
  // describe the run that produced the bytes), zero pool leases. Deduped
  // waiters are NOT marked: their envelope comes from a live execution.
  bool cached = false;
  bool ok() const { return error.empty(); }
};

struct engine_options {
  // Executor threads == maximum concurrent run_scopes (pool leases).
  unsigned max_inflight_runs = 2;
  // Workers per run_scope; 0 = partition the machine evenly:
  // max(1, hardware / max_inflight_runs).
  unsigned workers_per_run = 0;
  // Bounded admission queue; submit blocks (backpressure) when full.
  size_t queue_capacity = 1024;
  // How long an executor holding a fresh request waits for more requests
  // of the same solver before flushing. 0 = flush immediately (batching
  // effectively off when combined with max_batch = 1).
  std::chrono::microseconds batch_window{200};
  // Largest coalesced batch; 1 disables coalescing.
  size_t max_batch = 16;
  // Bounded LRU of recent (solver, input fingerprint, seed) → response
  // envelopes. A repeat submission is answered at admission with a copy
  // of the stored envelope (response::cached), zero queue slots and zero
  // pool leases; determinism makes staleness a non-question (the cached
  // envelope IS what a re-run would produce). Entries hold full payloads,
  // so the memory bound is entries × payload size — size for the
  // deployment's input scale. 0 = cache off (in-flight dedup stays on;
  // it needs no storage).
  size_t cache_entries = 256;
  // Execution profile every batch runs under: backend, grain, pivot, and
  // the base seed anonymous requests derive from. ctx.workers is ignored
  // in favor of workers_per_run.
  context ctx = default_context();
};

// The engine's counters in JSON order (core/fields.h): the request
// counters of PP_SERVE_COUNTERS (core/metrics.h), then three gauges.
//   submitted:  requests admitted to the queue as entries (cache hits and
//               deduped waiters resolve without consuming a queue slot)
//   completed:  responses delivered with ok(), including cache hits and
//               fanned-out waiters — may exceed submitted under repeat traffic
//   failed:     responses delivered with an error (not QoS)
//   expired:    deadline passed while queued: dropped at pop (or rejected at
//               submit), zero pool leases
//   cancelled:  deadline fired after the flush started: the solve unwound at
//               a phase boundary (or the item was skipped inside its leased
//               batch)
//   cache_hits: answered from the LRU at submit: zero queue slots, zero pool
//               leases (response::cached)
//   cache_misses: cache enabled but held no entry for the key
//   deduped:    joined an identical queued/running execution as a waiter
//               (zero extra leases)
//   exec_seconds: summed wall-clock of the run_batch flushes themselves
//               (batch window waits excluded). exec_seconds minus the
//               per-item solve seconds is the engine's total dispatch
//               overhead — lease cycles, scope setup, demux — and stays
//               meaningful under concurrent executors, where comparing
//               against end-to-end wall clock would not (concurrency makes
//               summed solve time exceed wall time).
#define PP_ENGINE_STATS_FIELDS(F, P, D)                                     \
  PP_SERVE_COUNTERS(F, F)                                                   \
  F(unsigned, peak_inflight) /* high-water mark of concurrent run_scopes */ \
  F(size_t, queue_depth)     /* requests waiting right now */               \
  F(double, exec_seconds)

struct engine_stats {
  PP_DECLARE_FIELDS(PP_ENGINE_STATS_FIELDS)
};

// Machine-readable stats (core/json.h writer): every field above as one
// flat object. The ppserve daemon serves this for {"stats": true} request
// lines; benches snapshot it for perf tracking.
void write_fields(json::writer& w, const engine_stats& r);
std::string to_json(const engine_stats& s);

class engine {
 public:
  explicit engine(engine_options opt = {});
  ~engine();  // stop(/*drain=*/true)

  engine(const engine&) = delete;
  engine& operator=(const engine&) = delete;

  // Enqueue and return the eventual response. Invalid requests (unknown
  // solver, wrong problem_input alternative) and submits after stop()
  // resolve immediately with an error — they never enter the queue.
  // Blocks while the queue is full.
  std::future<response> submit(request req);

  // Callback form: `cb` runs on the executor thread that finished the
  // request's batch (keep it cheap; it delays the executor's next pop).
  void submit(request req, std::function<void(response)> cb);

  // Stop accepting work. drain=true executes everything still queued
  // (windows are cut short); drain=false fails queued-but-unstarted
  // requests with "engine stopped". Either way every future issued by
  // submit() is resolved when stop() returns. Idempotent.
  void stop(bool drain = true);

  engine_stats stats() const;
  const engine_options& options() const { return opts_; }
  // Reserve the next anonymous execution seed: derive_seed(base, k) for
  // the k-th anonymous request engine-wide. Callers that must build a
  // request's input from its execution seed (ppserve does: input seed ==
  // execution seed) draw from here so concurrent sessions never collide —
  // deriving from any per-connection index would hand request 0 of two
  // parallel connections the same seed.
  uint64_t reserve_anonymous_seed() {
    return derive_seed(opts_.ctx.seed, anon_seq_.fetch_add(1, std::memory_order_relaxed));
  }
  // The resolved per-run width (options.workers_per_run, or the even
  // machine partition when that was 0).
  unsigned workers_per_run() const { return exec_ctx_.workers; }
  // The profile batches execute under (seed = the engine base seed; item
  // seeds override it per request).
  const context& execution_context() const { return exec_ctx_; }

 private:
  // Content address of a response — the cache and dedup key.
  struct result_key {
    std::string solver;
    fingerprint fp;
    uint64_t seed = 0;
    friend auto operator<=>(const result_key&, const result_key&) = default;
  };

  // One client waiting for an execution's envelope.
  struct waiter {
    std::promise<response> prom;
    std::function<void(response)> cb;  // when set, used instead of prom
    std::optional<std::chrono::steady_clock::time_point> deadline;
    // The class it was submitted with and its admission time, for the
    // per-class latency histograms (pp_serve_latency_*_usec in
    // core/metrics.h).
    priority prio = priority::interactive;
    std::chrono::steady_clock::time_point submit_time{};
  };

  // One unit of work and everyone waiting for it, registered in inflight_
  // from admission until it completes. `input` belongs to the executor
  // once the execution leaves the queue; every other field is protected
  // by m_ (the attribute syntax cannot name engine::m_ from a nested
  // struct, so the guard is by construction: all access sites hold it).
  struct execution {
    result_key key;
    problem_input input;
    priority prio = priority::interactive;  // its queue; raised by promotion
    std::vector<waiter> waiters;
    bool queued = true;  // false once an executor took it
    // Flush decision (seal_locked): carry a cancel token iff every waiter
    // has a deadline; it fires at the latest one. A sealed execution with
    // a token refuses joiners.
    bool use_token = false;
    std::chrono::steady_clock::time_point token_deadline{};
  };
  using exec_ptr = std::shared_ptr<execution>;

  std::future<response> enqueue(request&& req, std::function<void(response)> cb);
  void executor_loop();
  void execute(std::vector<exec_ptr> batch);
  // Fail batch entries [first, end) with `what` (the not-yet-delivered
  // tail when a flush throws).
  void fail_from(std::vector<exec_ptr>& batch, size_t first, const char* what);
  // Resolve `w` with error `what` and count it failed.
  void fail(waiter& w, const char* what);
  static void deliver(waiter& w, response&& r);
  // Resolve `w` with an "expired" error (deadline passed before any pool
  // lease was taken) and count it.
  void deliver_expired(waiter& w);

  // ---- cache + dedup helpers; the m_ requirement is machine-checked ---------
  // LRU lookup; on hit copies the stored envelope into `out` with
  // cached=true and touches the entry.
  bool cache_lookup_locked(const result_key& k, response& out) PP_REQUIRES(m_);
  // Insert a successful envelope, evicting the least-recently-used entry
  // past the bound. Cancelled/errored responses are never inserted.
  void cache_insert_locked(const result_key& k, const response& r) PP_REQUIRES(m_);
  // Drop `e`'s inflight_ slot, unless a later execution of its key owns it.
  void unregister_locked(const execution& e) PP_REQUIRES(m_);
  // Freeze the flush decision: all waiters deadline'd → token at the
  // latest deadline.
  void seal_locked(execution& e) PP_REQUIRES(m_);
  // Completion bookkeeping: unregister `e`, cache the envelope (successful
  // results only — a cancelled execution must not poison future hits), and
  // hand back every waiter for delivery.
  std::vector<waiter> finish_locked(execution& e, const response* ok) PP_REQUIRES(m_);

  // ---- queue helpers; the m_ requirement is machine-checked -----------------
  std::deque<exec_ptr>& queue_of(priority p) PP_REQUIRES(m_) {
    return queues_[static_cast<size_t>(p)];
  }
  size_t queued_locked() const PP_REQUIRES(m_) {
    return queues_[0].size() + queues_[1].size();
  }
  static bool is_expired(const waiter& w, std::chrono::steady_clock::time_point now) {
    return w.deadline && *w.deadline <= now;
  }
  // Move the expired waiters of q's executions into `dead`, dropping (and
  // unregistering) each execution whose last waiter expired. True =
  // entries left q.
  bool sweep_locked(std::deque<exec_ptr>& q, std::vector<waiter>& dead,
                    std::chrono::steady_clock::time_point now) PP_REQUIRES(m_);
  // Sweep both queues, then pop the next head — highest class first, FIFO
  // within a class. Null when nothing is queued.
  exec_ptr pop_head_locked(std::vector<waiter>& dead) PP_REQUIRES(m_);
  // Sweep q, then move into `batch` every queued execution of `solver`, up
  // to max_batch. True = entries left the queue, so the caller wakes
  // backpressured submitters NOW — with a small queue, a window-waiting
  // executor that just drained it is waiting for exactly the requests
  // those submitters hold.
  bool gather_locked(std::deque<exec_ptr>& q, const std::string& solver,
                     std::vector<exec_ptr>& batch, std::vector<waiter>& dead) PP_REQUIRES(m_);

  engine_options opts_;
  context exec_ctx_;  // opts_.ctx with workers = resolved workers_per_run

  mutable sync::mutex m_;
  std::condition_variable_any not_empty_;  // executors wait here
  std::condition_variable_any not_full_;   // blocked submitters wait here
  // [0] = batch class, [1] = interactive. Capacity bounds the number of
  // queued executions; deduped waiters ride their execution's slot and
  // are not counted.
  std::deque<exec_ptr> queues_[2] PP_GUARDED_BY(m_);
  bool stopping_ PP_GUARDED_BY(m_) = false;
  // Result cache: LRU list (front = most recent) + key index into it.
  struct cache_entry {
    result_key key;
    response resp;
  };
  std::list<cache_entry> lru_ PP_GUARDED_BY(m_);
  std::map<result_key, std::list<cache_entry>::iterator> cache_ PP_GUARDED_BY(m_);
  // In-flight dedup: each key's latest execution, queued, in its batch
  // window or running.
  std::map<result_key, exec_ptr> inflight_ PP_GUARDED_BY(m_);

  std::vector<std::thread> executors_;
  std::once_flag join_once_;

  // Per-engine request counters, indexed by PP_SERVE_COUNTERS order.
  enum class ctr : size_t {
#define PP_CTR_ID(type, name, ...) name,
    PP_SERVE_COUNTERS(PP_CTR_ID, PP_CTR_ID)
#undef PP_CTR_ID
    n_counters
  };
  // Add n to counter c of this engine and, when c is catalogued, to the
  // process-wide serve_<c> metric.
  void count(ctr c, uint64_t n = 1);

  std::atomic<uint64_t> anon_seq_{0};  // anonymous-seed counter (engine-wide)
  std::atomic<unsigned> live_runs_{0};  // concurrent run_scopes right now
  std::atomic<unsigned> peak_inflight_{0};
  std::atomic<uint64_t> counts_[static_cast<size_t>(ctr::n_counters)]{};
  std::atomic<uint64_t> exec_nanos_{0};
};

}  // namespace pp::serve
