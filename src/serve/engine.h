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
// Two mechanisms:
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
//    as the address of its result. An identical submission collapses onto
//    the existing queued/running execution as a *waiter* — one pool lease,
//    the envelope fanned out to everyone — and a bounded LRU of recent
//    envelopes answers repeat traffic at submit time with zero queue slots
//    and zero leases (`response::cached`). See engine_options::cache_entries
//    and the cache_hits/cache_misses/deduped counters.
//
//  * QoS. Requests carry a priority class and an optional deadline.
//    Interactive requests pop before batch requests (FIFO within a
//    class), coalescing never crosses classes, a request whose deadline
//    passes while queued is dropped at pop time without taking a pool
//    lease (`expired`), and an in-flight request carries a
//    pp::cancel_token so a blown deadline unwinds its solve at the next
//    phase boundary (`cancelled`) while unexpired batchmates complete.
//
//  * Session affinity. Requests carrying a session key (stateful clients:
//    src/serve/session.h) execute in admission order per session — a
//    later solve on a session never starts before an earlier one
//    finishes, so version-ordered feedback (note_solve) and callbacks
//    observe the session's timeline. Entries of ONE session may still
//    coalesce into a single flush (run_batch preserves item order), but
//    never into two concurrent flushes; cross-session and sessionless
//    traffic coalesces exactly as before. A session-blocked entry is
//    skipped at pop time rather than blocking the head of the queue.
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
  // Session affinity key; empty = unordered. Requests sharing a key
  // execute in admission order (see the header note). Dedup and cache
  // still apply: an identical submission may be answered out of band —
  // content addressing makes its envelope order-independent.
  std::string session;
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
  // QoS classes on: interactive requests pop before batch requests and
  // classes never share a flush. Off: one FIFO queue, classes ignored —
  // the A/B baseline bench/serving_qos measures against.
  bool priority_classes = true;
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
//   deduped:    collapsed onto an identical queued/running execution as a
//               waiter (zero extra leases)
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
  struct pending;

  // Mid-run attach slot for in-flight dedup: while a (solver, fingerprint,
  // seed) execution sits in its batch window or runs, running_ maps its
  // key here so late identical submissions can still join. Every field is
  // protected by m_ (the attribute syntax cannot name engine::m_ from a
  // nested struct, so the guard is by construction: all access sites hold
  // it).
  struct fanout {
    bool started = false;      // flush launched; `cancellable` is final
    bool cancellable = false;  // flush carries a cancel token: no more joins
    std::vector<pending> waiters;
  };

  struct pending {
    std::string solver;
    problem_input input;
    fingerprint fp;  // canonical input fingerprint (computed at admission)
    // Admission timestamp, for the per-class latency histograms
    // (pp_serve_latency_*_usec in core/metrics.h).
    std::chrono::steady_clock::time_point submit_time{};
    uint64_t seed = 0;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    priority prio = priority::interactive;
    std::promise<response> prom;
    std::function<void(response)> cb;  // when set, used instead of prom
    // Deduped waiters riding this entry's execution (leaders only; a
    // waiter's own list is empty). Mutated under m_; the executing thread
    // owns it after seal_for_flush_locked.
    std::vector<pending> followers;
    // This entry's running_ slot, while registered (executing entries only).
    std::shared_ptr<fanout> fan;
    // Flush decision (seal_for_flush_locked): carry a cancel token iff
    // every waiter has a deadline; it fires at the latest one.
    bool use_token = false;
    std::chrono::steady_clock::time_point token_deadline{};
    // Session affinity: the key and this entry's position in the
    // session's admission order (sessions_[session].queued holds the
    // live positions, FIFO).
    std::string session;
    uint64_t session_seq = 0;
  };

  // Content address of a response — the cache and dedup key.
  struct result_key {
    std::string solver;
    fingerprint fp;
    uint64_t seed = 0;
    friend auto operator<=>(const result_key&, const result_key&) = default;
  };
  static result_key key_of(const pending& p) { return {p.solver, p.fp, p.seed}; }

  std::future<response> enqueue(request&& req, std::function<void(response)> cb);
  void executor_loop();
  void execute(std::vector<pending> batch);
  // Fail batch entries [first, end) with `what` (the not-yet-delivered
  // tail when a flush throws).
  void fail_from(std::vector<pending>& batch, size_t first, const char* what);
  static void deliver(pending& p, response&& r);
  // Resolve `p` with an "expired" error (deadline passed before any pool
  // lease was taken) and count it.
  void deliver_expired(pending& p);

  // ---- cache + dedup helpers; the m_ requirement is machine-checked ---------
  // LRU lookup; on hit copies the stored envelope into `out` with
  // cached=true and touches the entry.
  bool cache_lookup_locked(const result_key& k, response& out) PP_REQUIRES(m_);
  // Insert a successful envelope, evicting the least-recently-used entry
  // past the bound. Cancelled/errored responses are never inserted.
  void cache_insert_locked(const result_key& k, const response& r) PP_REQUIRES(m_);
  // Collapse an identical (solver, fingerprint, seed) submission onto an
  // existing queued or joinable running execution; true = `w` was consumed.
  bool attach_dup_locked(pending& w) PP_REQUIRES(m_);
  // Make a just-popped entry joinable while it waits out the batch window
  // and runs: running_[key] → a fresh fanout (skipped if the key is
  // already running — the second execution simply collects no joiners).
  void register_running_locked(pending& p) PP_REQUIRES(m_);
  // Freeze an entry's flush decision: absorb window-time joiners into
  // `followers`, decide cancellability (all waiters deadline'd → token at
  // the latest deadline), and mark the fanout started.
  void seal_for_flush_locked(pending& p) PP_REQUIRES(m_);
  // Completion bookkeeping for one flushed entry: unregister its running_
  // slot, move every remaining waiter into `out` for delivery, and cache
  // the envelope (successful results only — a cancelled sole execution
  // must not poison future hits).
  void finish_running_locked(pending& p, const response* ok, std::vector<pending>& out)
      PP_REQUIRES(m_);
  // Per-waiter deadline sweep of one queued entry: expired followers move
  // into `dead`, an expired leader hands the execution role to its first
  // surviving follower (work other waiters still want is never dropped).
  // True = every waiter expired; the caller erases the entry after moving
  // it into `dead`.
  bool sweep_entry_locked(pending& p, std::vector<pending>& dead,
                          std::chrono::steady_clock::time_point now) PP_REQUIRES(m_);

  // ---- session affinity helpers; the m_ requirement is machine-checked ------
  // Per-session ordering state. `queued` holds the admission positions of
  // the session's queued entries (front = next allowed to run); `live` /
  // `owner` track entries claimed into a not-yet-finished flush and which
  // flush holds them. Erased when both drain, so idle sessions cost zero.
  struct session_state {
    uint64_t next_seq = 0;
    std::deque<uint64_t> queued;
    size_t live = 0;
    uint64_t owner = 0;  // flush tag; meaningful while live > 0
  };
  // May `p` start under flush `tag`? True when p is sessionless, or is the
  // session's FIFO head with no other flush in flight (entries already
  // claimed by THIS tag don't block their session-mates — that is what
  // lets one flush carry several consecutive entries of a session).
  bool session_eligible_locked(const pending& p, uint64_t tag) const PP_REQUIRES(m_);
  // Claim an eligible entry into flush `tag` (pops its queued position).
  void session_claim_locked(const pending& p, uint64_t tag) PP_REQUIRES(m_);
  // Un-queue an entry that dies without running (expired / orphaned).
  void session_release_queued_locked(const pending& p) PP_REQUIRES(m_);
  // Release a flushed entry; when the session's flush fully drains, its
  // next queued entry becomes eligible (callers notify not_empty_).
  void session_release_flushed_locked(const pending& p) PP_REQUIRES(m_);

  // ---- queue helpers; the m_ requirement is machine-checked -----------------
  // Which deque a pending lands in: its class when priority_classes, the
  // single FIFO otherwise.
  size_t queue_index(priority p) const {
    return opts_.priority_classes ? static_cast<size_t>(p) : 0;
  }
  size_t queued_locked() const PP_REQUIRES(m_) {
    return queues_[0].size() + queues_[1].size();
  }
  static bool is_expired(const pending& p, std::chrono::steady_clock::time_point now) {
    return p.deadline && *p.deadline <= now;
  }
  // Pop the next runnable head — highest class first, FIFO within a class
  // — moving every already-expired entry encountered into `dead` and
  // skipping (not disturbing) session-blocked entries. Returns false when
  // nothing runnable is queued.
  bool pop_head_locked(std::vector<pending>& dead, pending& head, uint64_t tag)
      PP_REQUIRES(m_);
  // Sweep-and-coalesce into `batch` every queued entry of `q` matching
  // the flush head (same solver; same class when QoS is on; session
  // eligible under `tag`), up to max_batch, registering each as joinable.
  // True = entries left the queue, so the caller wakes backpressured
  // submitters NOW — with a small queue, a window-waiting executor that
  // just drained it is waiting for exactly the requests those submitters
  // hold.
  bool gather_locked(std::deque<pending>& q, const std::string& solver, priority cls,
                     uint64_t tag, std::vector<pending>& batch, std::vector<pending>& dead)
      PP_REQUIRES(m_);

  engine_options opts_;
  context exec_ctx_;  // opts_.ctx with workers = resolved workers_per_run

  mutable sync::mutex m_;
  std::condition_variable_any not_empty_;  // executors wait here
  std::condition_variable_any not_full_;   // blocked submitters wait here
  // [0] = batch class, [1] = interactive; everything in [0] when
  // priority_classes is off. Capacity bounds the sum of *entries*; deduped
  // waiters ride their leader's slot and are not counted.
  std::deque<pending> queues_[2] PP_GUARDED_BY(m_);
  bool stopping_ PP_GUARDED_BY(m_) = false;
  // Result cache: LRU list (front = most recent) + key index into it.
  struct cache_entry {
    result_key key;
    response resp;
  };
  std::list<cache_entry> lru_ PP_GUARDED_BY(m_);
  std::map<result_key, std::list<cache_entry>::iterator> cache_ PP_GUARDED_BY(m_);
  // In-flight dedup: keys currently in a batch window or executing.
  std::map<result_key, std::shared_ptr<fanout>> running_ PP_GUARDED_BY(m_);
  // Session affinity order books (erased when a session fully drains).
  std::map<std::string, session_state> sessions_ PP_GUARDED_BY(m_);
  // Flush identity: each executor iteration that pops a head draws a tag;
  // session entries claimed under one tag share one flush.
  uint64_t flush_tag_ PP_GUARDED_BY(m_) = 0;

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
  std::atomic<unsigned> inflight_{0};
  std::atomic<unsigned> peak_inflight_{0};
  std::atomic<uint64_t> counts_[static_cast<size_t>(ctr::n_counters)]{};
  std::atomic<uint64_t> exec_nanos_{0};
};

}  // namespace pp::serve
