// Uniform result envelopes for every solver run.
//
// `run_result<T>` wraps a solver's typed payload (lis_result, sssp_result,
// ...) together with the cross-cutting facts every caller wants: the phase
// statistics, wall-clock time, and the context facts (backend, seed) the
// run was executed under. The registry (core/registry.h) returns these for
// every dispatch; `run_timed` builds one around any direct solver call.
//
// `batch_result<T>` is the batched counterpart: the per-item envelopes of
// one registry::run_batch dispatch plus the aggregate facts a serving
// pipeline tracks (total/min/mean/p95 seconds, summed phase rounds,
// per-item canonical scores). All items of a batch execute under one
// scheduler binding, so aggregate seconds measure solve time only — the
// pool lease and team warm-up are paid once, outside every item's clock.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/context.h"
#include "core/fingerprint.h"
#include "core/stats.h"
#include "core/trace.h"
#include "parallel/api.h"
#include "parallel/backend.h"

namespace pp {

// How a run ended. `cancelled` means the run's cancel token fired (manual
// cancel or blown deadline) and the solver unwound at a phase boundary:
// `value` is default-constructed, `seconds` covers the partial solve.
enum class run_status { ok, cancelled };

inline const char* run_status_name(run_status s) {
  return s == run_status::ok ? "ok" : "cancelled";
}

template <typename T>
struct run_result {
  T value{};             // the solver's own result struct
  phase_stats stats{};   // copied out of value.stats when present
  double seconds = 0.0;  // wall-clock time of the solver call
  backend_kind backend = backend_kind::native;  // backend the run used
  uint64_t seed = 0;                            // seed the run used
  unsigned workers = 0;  // actual worker count the run executed on
  run_status status = run_status::ok;           // ok, or cancelled mid-run
  std::string solver;                           // registry name, e.g. "lis/parallel"
  // Canonical fingerprint of the input the run consumed (core/fingerprint.h).
  // Filled by the registry dispatchers, which hold the problem_input;
  // all-zero when the envelope was built around a raw closure (run_timed)
  // that never saw a registry input.
  fingerprint input_fp{};

  bool cancelled() const { return status == run_status::cancelled; }
};

// How registry::run_batch walks a batch.
struct batch_options {
  enum class item_order {
    as_given,  // execute items in input order
    shuffled,  // execute in a seed-derived permutation (results still
               // reported in input order, and — with derived seeds —
               // identical to the as_given results item-for-item)
  };
  item_order order = item_order::as_given;
  // true: item i executes under derive_seed(ctx.seed, i), so items are
  // independent and the whole batch is reproducible from one base seed.
  // false: every item runs under ctx.seed verbatim (the --repeats shape:
  // the same measurement repeated, not a batch of independent tasks).
  bool derive_seeds = true;
  // Non-empty: item i executes under ctx.with_seed(seeds[i]) verbatim,
  // overriding derive_seeds. This is the micro-batching shape (serve/): N
  // independent requests, each with its own seed, coalesced into one
  // batch — item i must reproduce registry::run under exactly seeds[i].
  // Size must equal the batch count (std::invalid_argument otherwise).
  std::vector<uint64_t> seeds;
  // Non-empty: item i executes under tokens[i] (null entries = not
  // cancellable). An item whose token has already fired when its turn
  // comes is skipped without running — its envelope reports
  // run_status::cancelled — and a token firing mid-item cancels that item
  // at its next phase boundary while later items still execute under
  // their own tokens. Size must equal the batch count.
  std::vector<cancel_token> tokens;
};

inline const char* item_order_name(batch_options::item_order o) {
  return o == batch_options::item_order::as_given ? "as_given" : "shuffled";
}

template <typename T>
struct batch_result {
  std::vector<run_result<T>> items;  // index-aligned with the input span
  std::vector<int64_t> scores;       // canonical per-item score (score_of)

  // Aggregates over items[*].seconds / .stats (recompute_aggregates()).
  // Percentiles are nearest-rank, so each one is an actual observed item
  // time and the ordering min <= p50 <= p95 <= p99 <= max always holds
  // (as does min <= mean <= max). Only items that completed (run_status::
  // ok) contribute: a cancelled item's partial (or zero, when skipped)
  // solve time is not a completed-solve observation and would deflate
  // min/mean/percentiles. All items cancelled = all aggregates zero.
  double total_seconds = 0.0;  // sum of per-item solve times
  double min_seconds = 0.0;
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;  // nearest-rank median
  double p95_seconds = 0.0;  // nearest-rank 95th percentile
  double p99_seconds = 0.0;  // nearest-rank 99th percentile
  double max_seconds = 0.0;
  size_t total_rounds = 0;   // summed phase rounds across items

  backend_kind backend = backend_kind::native;  // backend the batch used
  uint64_t seed = 0;      // base seed (items derive from it by index)
  unsigned workers = 0;   // width of the one scheduler binding
  std::string solver;     // registry name, e.g. "lis/parallel"

  size_t count() const { return items.size(); }

  // Refresh the timing/round aggregates from `items`. Called by
  // run_batch; call again after mutating items by hand.
  void recompute_aggregates() {
    total_seconds = min_seconds = mean_seconds = 0.0;
    p50_seconds = p95_seconds = p99_seconds = max_seconds = 0.0;
    total_rounds = 0;
    if (items.empty()) return;
    std::vector<double> secs;
    secs.reserve(items.size());
    for (const auto& it : items) {
      if (it.status != run_status::ok) continue;
      secs.push_back(it.seconds);
      total_seconds += it.seconds;
      total_rounds += it.stats.rounds;
    }
    if (secs.empty()) return;
    std::sort(secs.begin(), secs.end());
    min_seconds = secs.front();
    max_seconds = secs.back();
    mean_seconds = total_seconds / static_cast<double>(secs.size());
    auto pct = [&](size_t p) {  // nearest-rank: ceil(p/100 * n), 1-based
      size_t rank = (secs.size() * p + 99) / 100;
      return secs[rank == 0 ? 0 : rank - 1];
    };
    p50_seconds = pct(50);
    p95_seconds = pct(95);
    p99_seconds = pct(99);
  }
};

// Run fn(ctx) under `ctx` (fn must accept a const context&), time it, and
// wrap the result. The scheduler for the run is bound before the clock
// starts (pool lease + thread spawn-up stay out of the measurement) and
// held until fn returns, so the whole solve executes on — and the envelope
// reports — the width the context asked for. If the payload has a `.stats`
// member it is mirrored into the envelope. A cancelled_error unwinding out
// of fn (the context's cancel token fired at a phase boundary) is caught
// here and reported as run_status::cancelled, so cancellation is a status,
// not an exception, at every envelope-returning surface.
template <typename F>
auto run_timed(std::string solver, const context& ctx, F&& fn)
    -> run_result<std::decay_t<decltype(fn(ctx))>> {
  // The one `run` trace span per solve: covers scheduler binding (the
  // lease, when this call takes it) through the solver's return.
  trace_span span("run", "workers", ctx.workers, "seed", ctx.seed);
  run_result<std::decay_t<decltype(fn(ctx))>> out;
  out.solver = std::move(solver);
  out.backend = ctx.backend;
  out.seed = ctx.seed;
  scoped_scheduler sched(ctx);
  out.workers = sched.workers();
  auto t0 = std::chrono::steady_clock::now();
  try {
    out.value = fn(ctx);
  } catch (const cancelled_error&) {
    out.status = run_status::cancelled;
  }
  auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  if constexpr (requires(std::decay_t<decltype(fn(ctx))> v) { v.stats; }) {
    out.stats = out.value.stats;
  }
  return out;
}

}  // namespace pp
