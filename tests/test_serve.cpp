// Tests for the async serving engine (src/serve/): micro-batched submits
// reproduce standalone registry::run results seed-for-seed, coalesced
// requests cost one pool lease per flushed batch, concurrent run_scopes
// respect max_inflight_runs, and shutdown resolves every future (drain
// and fail modes) without hangs or leaks. The wire protocol
// (pp::serve::connection) is tested in-process at the end, with a writer
// thread draining each connection as the transports do.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "core/registry.h"
#include "parallel/scheduler.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/session.h"

namespace {

using namespace std::chrono_literals;
using pp::registry;
using pp::serve::engine;
using pp::serve::engine_options;
using pp::serve::request;
using pp::serve::response;

pp::context native2() {
  return pp::context{}.with_backend(pp::backend_kind::native).with_workers(2);
}

TEST(Serve, EverySolverMatchesStandaloneRun) {
  // Acceptance (a): a submit through the engine returns the same score as
  // a standalone registry::run with the same seed — for every solver.
  engine_options opt;
  opt.max_inflight_runs = 2;
  opt.workers_per_run = 2;
  opt.batch_window = 2ms;
  opt.max_batch = 4;
  opt.ctx = native2().with_seed(17);
  engine eng(opt);

  auto& reg = registry::instance();
  std::map<std::string, pp::problem_input> inputs;
  std::vector<std::pair<std::string, std::future<response>>> futs;
  for (const auto& s : reg.solvers()) {
    if (!inputs.count(s.problem)) inputs.emplace(s.problem, reg.make_input(s.problem, 500, 23));
    request req;
    req.solver = s.name;
    req.input = inputs.at(s.problem);
    req.seed = 23 + inputs.size();
    futs.emplace_back(s.name, eng.submit(std::move(req)));
  }
  // Resolve everything before running the standalone comparisons.
  std::vector<std::pair<std::string, response>> got;
  for (auto& [name, fut] : futs) got.emplace_back(name, fut.get());
  eng.stop();

  for (auto& [name, r] : got) {
    ASSERT_TRUE(r.ok()) << name << ": " << r.error;
    const std::string& problem = reg.info(name)->problem;
    auto solo = registry::run(name, inputs.at(problem),
                              eng.execution_context().with_seed(r.result.seed));
    EXPECT_EQ(pp::score_of(r.result.value), pp::score_of(solo.value)) << name;
    EXPECT_EQ(r.result.solver, name);
    EXPECT_EQ(r.result.workers, eng.workers_per_run()) << name;
  }
}

TEST(Serve, CoalescedBatchCostsOneLease) {
  // Acceptance (b), first half: K same-solver requests inside one window
  // flush as ONE run_batch — one pool lease — and still demux to per-seed
  // exact results.
  constexpr size_t kReqs = 6;
  engine_options opt;
  opt.max_inflight_runs = 1;  // one executor: deterministic single flush
  opt.workers_per_run = 2;
  opt.batch_window = 100ms;
  opt.max_batch = kReqs;
  opt.ctx = native2().with_seed(5);
  engine eng(opt);

  auto& cache = pp::detail::pool_cache::instance();
  auto in = registry::instance().make_input("lis", 800, 7);
  uint64_t leases_before = cache.acquires();

  std::vector<std::future<response>> futs;
  for (size_t i = 0; i < kReqs; ++i) {
    request req;
    req.solver = "lis/parallel";
    req.input = in;
    req.seed = 100 + i;
    futs.push_back(eng.submit(std::move(req)));
  }
  std::vector<response> rs;
  for (auto& f : futs) rs.push_back(f.get());
  uint64_t leases = cache.acquires() - leases_before;
  auto st = eng.stats();
  eng.stop();

  EXPECT_EQ(st.batches, 1u) << "expected one coalesced flush";
  EXPECT_EQ(leases, st.batches) << "one pool lease per flushed batch";
  EXPECT_EQ(st.batched, kReqs);
  for (size_t i = 0; i < kReqs; ++i) {
    ASSERT_TRUE(rs[i].ok()) << rs[i].error;
    EXPECT_EQ(rs[i].result.seed, 100 + i) << i;
    auto solo = registry::run("lis/parallel", in, eng.execution_context().with_seed(100 + i));
    EXPECT_EQ(pp::score_of(rs[i].result.value), pp::score_of(solo.value)) << i;
  }
}

TEST(Serve, InflightRunsNeverExceedLimit) {
  // Acceptance (b), second half: with max_inflight_runs = R, concurrent
  // leased pools never exceed R. Batching off so every request is its own
  // run_scope; pool_cache::in_use() is sampled while the engine churns.
  constexpr unsigned kR = 2;
  engine_options opt;
  opt.max_inflight_runs = kR;
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.ctx = native2().with_seed(3);
  engine eng(opt);

  // Input built before the lease baseline: the parallel input factory
  // itself leases a pool (it runs outside any scheduler binding).
  auto in = registry::instance().make_input("lis", 2'000, 9);
  auto& cache = pp::detail::pool_cache::instance();
  ASSERT_EQ(cache.in_use(), 0u) << "leaked lease from another test";
  uint64_t leases_before = cache.acquires();
  constexpr size_t kReqs = 12;
  std::vector<std::future<response>> futs;
  for (size_t i = 0; i < kReqs; ++i) {
    request req;
    req.solver = "lis/parallel";
    req.input = in;
    req.seed = i;
    futs.push_back(eng.submit(std::move(req)));
  }
  size_t max_in_use = 0;
  while (true) {
    max_in_use = std::max(max_in_use, cache.in_use());
    bool all_done = true;
    for (auto& f : futs)
      if (f.wait_for(0ms) != std::future_status::ready) all_done = false;
    if (all_done) break;
    std::this_thread::yield();
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  auto st = eng.stats();
  eng.stop();

  EXPECT_LE(max_in_use, kR) << "concurrent leased pools exceeded max_inflight_runs";
  EXPECT_LE(st.peak_inflight, kR);
  EXPECT_EQ(st.batches, kReqs) << "batching off: every request is its own flush";
  EXPECT_EQ(cache.acquires() - leases_before, st.batches);
}

TEST(Serve, AnonymousRequestsDeriveSeedsFromBase) {
  // Requests without a seed execute under derive_seed(base, admission
  // index) — the run_batch per-item rule, reproducible from the base.
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 1;
  opt.ctx = native2().with_workers(1).with_seed(77);
  engine eng(opt);

  auto in = registry::instance().make_input("lis", 400, 1);
  auto f0 = eng.submit({"lis/parallel", in, std::nullopt});
  auto f1 = eng.submit({"lis/parallel", in, std::nullopt});
  response r0 = f0.get(), r1 = f1.get();
  eng.stop();
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r0.result.seed, pp::derive_seed(77, 0));
  EXPECT_EQ(r1.result.seed, pp::derive_seed(77, 1));
}

TEST(Serve, InvalidRequestsFailFastWithoutPoisoningBatches) {
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = 50ms;
  opt.max_batch = 4;
  opt.ctx = native2();
  engine eng(opt);

  auto lis_in = registry::instance().make_input("lis", 300, 1);
  auto huff_in = registry::instance().make_input("huffman", 300, 1);

  auto bad_name = eng.submit({"lis/no_such_variant", lis_in, 1});
  auto bad_input = eng.submit({"lis/parallel", huff_in, 1});
  auto good = eng.submit({"lis/parallel", lis_in, 1});

  response rn = bad_name.get();
  response ri = bad_input.get();
  response rg = good.get();
  eng.stop();

  EXPECT_FALSE(rn.ok());
  EXPECT_NE(rn.error.find("unknown solver"), std::string::npos) << rn.error;
  EXPECT_FALSE(ri.ok());
  EXPECT_NE(ri.error.find("expects a 'lis' input"), std::string::npos) << ri.error;
  ASSERT_TRUE(rg.ok()) << rg.error;
}

TEST(Serve, CallbackFormDelivers) {
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 1;
  opt.ctx = native2().with_workers(1);
  engine eng(opt);

  std::promise<response> done;
  auto fut = done.get_future();
  eng.submit({"lis/parallel", registry::instance().make_input("lis", 300, 4), 4},
             [&](response r) { done.set_value(std::move(r)); });
  response r = fut.get();
  eng.stop();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.result.seed, 4u);
  EXPECT_GT(pp::score_of(r.result.value), 0);
}

TEST(Serve, StopDrainResolvesEverythingOk) {
  // Acceptance (c): stopping with drain executes the whole queue; every
  // future resolves ok, no hang.
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 2;
  opt.ctx = native2();
  engine eng(opt);

  auto in = registry::instance().make_input("lis", 1'500, 2);
  std::vector<std::future<response>> futs;
  for (size_t i = 0; i < 8; ++i) futs.push_back(eng.submit({"lis/parallel", in, i}));
  eng.stop(/*drain=*/true);
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(0ms), std::future_status::ready) << "stop() returned before resolving";
    EXPECT_TRUE(f.get().ok());
  }
  auto st = eng.stats();
  EXPECT_EQ(st.completed, 8u);
  EXPECT_EQ(st.queue_depth, 0u);
}

TEST(Serve, StopWithoutDrainFailsPendingFutures) {
  // Acceptance (c): stopping without drain resolves queued-but-unstarted
  // requests with an error instead of executing them — still no hang, no
  // unresolved future.
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 1;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.ctx = native2().with_workers(1);
  engine eng(opt);

  auto in = registry::instance().make_input("lis", 4'000, 2);
  std::vector<std::future<response>> futs;
  for (size_t i = 0; i < 16; ++i) futs.push_back(eng.submit({"lis/parallel", in, i}));
  eng.stop(/*drain=*/false);

  size_t ok = 0, failed = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(0ms), std::future_status::ready) << "stop() returned before resolving";
    response r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      ++failed;
      EXPECT_NE(r.error.find("engine stopped"), std::string::npos) << r.error;
    }
  }
  EXPECT_EQ(ok + failed, 16u);
  EXPECT_GT(failed, 0u) << "expected at least one queued request to be failed by stop";

  // Submitting after stop fails immediately.
  auto late = eng.submit({"lis/parallel", in, 1});
  ASSERT_EQ(late.wait_for(0ms), std::future_status::ready);
  EXPECT_FALSE(late.get().ok());
}

TEST(Serve, BoundedQueueBackpressureCompletesEverything) {
  // A tiny queue forces submit() to block; all requests still complete.
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 1;
  opt.queue_capacity = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.ctx = native2().with_workers(1);
  engine eng(opt);

  auto in = registry::instance().make_input("lis", 1'000, 3);
  std::vector<std::future<response>> futs;
  for (size_t i = 0; i < 10; ++i) futs.push_back(eng.submit({"lis/parallel", in, i}));
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  eng.stop();
  EXPECT_EQ(eng.stats().completed, 10u);
}

// ---- QoS: deadlines, priority classes, cancellation -------------------------

TEST(Serve, ExpiredBeforePopTakesNoLease) {
  // A request whose deadline passes while queued resolves with an error
  // at pop time, without a pool lease (pool_cache::acquires unchanged).
  engine_options opt;
  opt.max_inflight_runs = 1;  // one executor we can keep busy
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.ctx = native2().with_seed(3);
  engine eng(opt);

  // Inputs built before the lease baseline (the factory leases a pool).
  auto big = registry::instance().make_input("lis", 30'000, 9);
  auto small = registry::instance().make_input("lis", 300, 9);
  auto& cache = pp::detail::pool_cache::instance();
  uint64_t leases_before = cache.acquires();

  // Occupy the executor, then queue a request that expires long before
  // the executor frees up.
  auto blocker = eng.submit({"lis/parallel", big, 1});
  std::this_thread::sleep_for(20ms);  // let the executor pop the blocker
  request doomed;
  doomed.solver = "lis/parallel";
  doomed.input = small;
  doomed.seed = 2;
  doomed.deadline = std::chrono::steady_clock::now() + 1ms;
  auto fut = eng.submit(std::move(doomed));

  response r = fut.get();
  EXPECT_TRUE(blocker.get().ok());
  auto st = eng.stats();
  eng.stop();

  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("expired"), std::string::npos) << r.error;
  EXPECT_EQ(st.expired, 1u);
  EXPECT_EQ(st.cancelled, 0u);
  EXPECT_EQ(st.batches, 1u) << "only the blocker may flush";
  EXPECT_EQ(cache.acquires() - leases_before, st.batches)
      << "the expired request must not cost a pool lease";
}

TEST(Serve, ExpiredBatchEntryResolvedDespiteInteractiveTraffic) {
  // Every pop sweeps BOTH class deques for expired entries: an expired
  // batch-class request must resolve even when interactive traffic keeps
  // the interactive deque non-empty (it must not hang its future or pin
  // queue capacity forever).
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.ctx = native2().with_seed(3);
  engine eng(opt);

  auto big = registry::instance().make_input("lis", 30'000, 9);
  auto small = registry::instance().make_input("lis", 200, 9);
  auto blocker = eng.submit({"lis/parallel", big, 1});
  std::this_thread::sleep_for(20ms);  // executor busy with the blocker

  request doomed;
  doomed.solver = "lis/parallel";
  doomed.input = small;
  doomed.seed = 2;
  doomed.prio = pp::serve::priority::batch;
  doomed.deadline = std::chrono::steady_clock::now() + 1ms;
  auto dead_fut = eng.submit(std::move(doomed));
  std::this_thread::sleep_for(10ms);  // deadline blown while queued
  // Interactive requests queued behind the blocker: the next pops choose
  // the interactive class, and must still drop the expired batch entry.
  request probe;
  probe.solver = "lis/parallel";
  probe.input = small;
  probe.seed = 3;
  probe.prio = pp::serve::priority::interactive;
  auto probe_fut = eng.submit(std::move(probe));

  EXPECT_TRUE(probe_fut.get().ok());
  ASSERT_EQ(dead_fut.wait_for(1s), std::future_status::ready)
      << "expired batch request stranded while interactive traffic flowed";
  response r = dead_fut.get();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("expired"), std::string::npos) << r.error;
  EXPECT_TRUE(blocker.get().ok());
  auto st = eng.stats();
  eng.stop();
  EXPECT_EQ(st.expired, 1u);
}

TEST(Serve, AlreadyExpiredDeadlineRejectedAtSubmit) {
  engine eng({.max_inflight_runs = 1, .workers_per_run = 1, .ctx = native2().with_workers(1)});
  request req;
  req.solver = "lis/parallel";
  req.input = registry::instance().make_input("lis", 300, 1);
  req.deadline = std::chrono::steady_clock::now() - 1ms;
  auto fut = eng.submit(std::move(req));
  ASSERT_EQ(fut.wait_for(1s), std::future_status::ready);
  response r = fut.get();
  auto st = eng.stats();
  eng.stop();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("expired"), std::string::npos) << r.error;
  EXPECT_EQ(st.expired, 1u);
  EXPECT_EQ(st.submitted, 0u) << "never entered the queue";
}

TEST(Serve, InteractiveClassPopsBeforeBatchClass) {
  // With the lone executor busy, queue batch-class requests first, then
  // interactive ones: every interactive request must complete before any
  // batch request (higher class pops first), and classes stay FIFO.
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.queue_capacity = 64;
  opt.ctx = native2().with_seed(7);
  engine eng(opt);

  auto big = registry::instance().make_input("lis", 30'000, 9);
  auto small = registry::instance().make_input("lis", 200, 9);
  auto blocker = eng.submit({"lis/parallel", big, 1});
  std::this_thread::sleep_for(20ms);  // executor now busy with the blocker

  std::mutex order_m;
  std::vector<std::string> order;
  auto tag = [&](std::string label) {
    return [&, label = std::move(label)](response r) {
      EXPECT_TRUE(r.ok()) << label << ": " << r.error;
      std::lock_guard<std::mutex> lk(order_m);
      order.push_back(label);
    };
  };
  for (int i = 0; i < 3; ++i) {
    request req;
    req.solver = "lis/parallel";
    req.input = small;
    req.seed = 10 + i;
    req.prio = pp::serve::priority::batch;
    eng.submit(std::move(req), tag("b" + std::to_string(i)));
  }
  for (int i = 0; i < 3; ++i) {
    request req;
    req.solver = "lis/parallel";
    req.input = small;
    req.seed = 20 + i;
    req.prio = pp::serve::priority::interactive;
    eng.submit(std::move(req), tag("i" + std::to_string(i)));
  }
  EXPECT_TRUE(blocker.get().ok());
  eng.stop(/*drain=*/true);

  ASSERT_EQ(order.size(), 6u);
  std::vector<std::string> want = {"i0", "i1", "i2", "b0", "b1", "b2"};
  EXPECT_EQ(order, want) << "interactive first, FIFO within each class";
}

TEST(Serve, CoalescingNeverCrossesClasses) {
  // Same solver, same window — but a batch-class request must not ride an
  // interactive flush's lease: expect separate flushes per class.
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = 100ms;
  opt.max_batch = 8;
  opt.queue_capacity = 64;
  opt.ctx = native2().with_seed(5);
  engine eng(opt);

  auto big = registry::instance().make_input("lis", 30'000, 9);
  auto small = registry::instance().make_input("lis", 300, 9);
  auto blocker = eng.submit({"lis/parallel", big, 1});
  // Outwait the blocker's own batch window (100ms): its flush must be
  // closed and running before the probe requests arrive, or they would
  // legitimately coalesce into it (same solver, same class).
  std::this_thread::sleep_for(150ms);

  std::vector<std::future<response>> futs;
  for (int i = 0; i < 2; ++i) {
    request req;
    req.solver = "lis/parallel";
    req.input = small;
    req.seed = 10 + i;
    req.prio = pp::serve::priority::interactive;
    futs.push_back(eng.submit(std::move(req)));
  }
  for (int i = 0; i < 2; ++i) {
    request req;
    req.solver = "lis/parallel";
    req.input = small;
    req.seed = 20 + i;
    req.prio = pp::serve::priority::batch;
    futs.push_back(eng.submit(std::move(req)));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  auto st = eng.stats();
  eng.stop();

  EXPECT_EQ(st.batches, 3u) << "blocker + one interactive flush + one batch flush";
  EXPECT_EQ(st.batched, 4u) << "both coalesced flushes had 2 requests each";
}

TEST(Serve, MidRunDeadlineCancelsFasterThanFullSolve) {
  // Acceptance: a deadline that expires mid-run resolves its request with
  // `cancelled` in (much) less than the solver's full solve time.
  auto in = registry::instance().make_input("lis", 30'000, 11);
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.ctx = native2().with_seed(5);
  engine eng(opt);

  // Reference full solve under the engine's execution profile.
  auto full = registry::run("lis/parallel", in, eng.execution_context().with_seed(1));
  ASSERT_GT(full.seconds, 0.05) << "input too small to observe a mid-run cancel";

  request req;
  req.solver = "lis/parallel";
  req.input = in;
  req.seed = 1;
  req.deadline = std::chrono::steady_clock::now() + 20ms;
  auto t0 = std::chrono::steady_clock::now();
  auto fut = eng.submit(std::move(req));
  response r = fut.get();
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  auto st = eng.stats();
  eng.stop();

  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("cancelled"), std::string::npos) << r.error;
  EXPECT_EQ(r.result.status, pp::run_status::cancelled);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.expired, 0u);
  EXPECT_LT(elapsed, 0.5 * full.seconds)
      << "cancelled request took " << elapsed << "s vs full solve " << full.seconds << "s";
}

TEST(Serve, BlownDeadlineFailsOnlyExpiredBatchmates) {
  // Two requests coalesce into one flush; the first carries a deadline
  // that blows mid-run. It must come back `cancelled` while its unexpired
  // batchmate completes with the exact standalone result.
  auto in = registry::instance().make_input("lis", 30'000, 13);
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = 200ms;  // hold the flush until both requests arrive
  opt.max_batch = 2;
  opt.ctx = native2().with_seed(5);
  engine eng(opt);

  request doomed;
  doomed.solver = "lis/parallel";
  doomed.input = in;
  doomed.seed = 1;
  doomed.deadline = std::chrono::steady_clock::now() + 30ms;
  auto f0 = eng.submit(std::move(doomed));
  auto f1 = eng.submit({"lis/parallel", in, 2});  // no deadline

  response r0 = f0.get();
  response r1 = f1.get();
  auto st = eng.stats();
  eng.stop();

  EXPECT_EQ(st.batches, 1u) << "both requests must share one flush";
  EXPECT_FALSE(r0.ok());
  EXPECT_NE(r0.error.find("cancelled"), std::string::npos) << r0.error;
  ASSERT_TRUE(r1.ok()) << r1.error;
  auto solo = registry::run("lis/parallel", in, eng.execution_context().with_seed(2));
  EXPECT_EQ(pp::score_of(r1.result.value), pp::score_of(solo.value));
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(Serve, SameClassIsPlainFifo) {
  // The serving_qos bench's FIFO row: traffic of one class pops in strict
  // admission order behind a busy executor.
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.ctx = native2().with_seed(7);
  engine eng(opt);

  auto big = registry::instance().make_input("lis", 30'000, 9);
  auto small = registry::instance().make_input("lis", 200, 9);
  auto blocker = eng.submit({"lis/parallel", big, 1});
  std::this_thread::sleep_for(20ms);

  std::mutex order_m;
  std::vector<std::string> order;
  auto tag = [&](std::string label) {
    return [&, label = std::move(label)](response r) {
      EXPECT_TRUE(r.ok()) << label << ": " << r.error;
      std::lock_guard<std::mutex> lk(order_m);
      order.push_back(label);
    };
  };
  for (int i = 0; i < 4; ++i) {
    request b;
    b.solver = "lis/parallel";
    b.input = small;
    b.seed = 10 + i;
    b.prio = pp::serve::priority::batch;
    eng.submit(std::move(b), tag("b" + std::to_string(i)));
  }
  EXPECT_TRUE(blocker.get().ok());
  eng.stop(/*drain=*/true);

  std::vector<std::string> want = {"b0", "b1", "b2", "b3"};
  EXPECT_EQ(order, want) << "one class: strict FIFO";
}

TEST(Serve, AnonymousSeedsUniqueAcrossThreads) {
  // The regression behind ppserve's cross-connection collision: anonymous
  // seeds come from one engine-wide counter, so concurrent sessions can
  // never hand out the same derived seed.
  engine eng({.max_inflight_runs = 1, .workers_per_run = 1, .ctx = native2().with_workers(1)});
  constexpr size_t kThreads = 4, kPer = 64;
  std::vector<std::vector<uint64_t>> got(kThreads);
  std::vector<std::thread> ts;
  for (size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (size_t i = 0; i < kPer; ++i) got[t].push_back(eng.reserve_anonymous_seed());
    });
  }
  for (auto& t : ts) t.join();
  eng.stop();
  std::set<uint64_t> uniq;
  for (auto& v : got)
    for (uint64_t s : v) uniq.insert(s);
  EXPECT_EQ(uniq.size(), kThreads * kPer) << "anonymous seeds collided across sessions";
  // And they are exactly the derive_seed(base, 0..N-1) set — reproducible
  // from the base seed alone.
  std::set<uint64_t> want;
  for (size_t k = 0; k < kThreads * kPer; ++k)
    want.insert(pp::derive_seed(eng.options().ctx.seed, k));
  EXPECT_EQ(uniq, want);
}

// ---- Result cache & in-flight dedup -----------------------------------------

TEST(Serve, CacheHitTakesNoLeaseAndIsBitIdentical) {
  // A repeat (solver, input-fingerprint, seed) submission is answered from
  // the LRU result cache: zero pool leases, `cached` set, and an envelope
  // byte-identical to the executed one.
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.ctx = native2().with_seed(5);
  engine eng(opt);

  auto in = registry::instance().make_input("lis", 500, 9);
  auto& cache = pp::detail::pool_cache::instance();
  uint64_t leases_before = cache.acquires();

  response r1 = eng.submit({"lis/parallel", in, 42}).get();
  response r2 = eng.submit({"lis/parallel", in, 42}).get();
  uint64_t leases = cache.acquires() - leases_before;
  auto st = eng.stats();
  eng.stop();

  ASSERT_TRUE(r1.ok()) << r1.error;
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_FALSE(r1.cached);
  EXPECT_TRUE(r2.cached);
  EXPECT_EQ(pp::to_json(r1.result), pp::to_json(r2.result))
      << "cached envelope must be byte-identical to the executed one";
  EXPECT_EQ(leases, 1u) << "the cache hit must not cost a pool lease";
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.deduped, 0u);
  EXPECT_EQ(st.submitted, 1u) << "a cache hit never enters the queue";
  EXPECT_EQ(st.completed, 2u) << "completed counts delivered responses";

  // The stats envelope exposes the new counters (engine_stats' field list
  // generates both the members and their JSON keys).
  std::string js = pp::serve::to_json(st);
  for (const char* key : {"\"cache_hits\"", "\"cache_misses\"", "\"deduped\""})
    EXPECT_NE(js.find(key), std::string::npos) << key;
}

TEST(Serve, CacheOffExecutesEveryRepeat) {
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.cache_entries = 0;  // dedup stays on; the cache is gone
  opt.ctx = native2().with_seed(5);
  engine eng(opt);

  auto in = registry::instance().make_input("lis", 500, 9);
  response r1 = eng.submit({"lis/parallel", in, 42}).get();
  response r2 = eng.submit({"lis/parallel", in, 42}).get();
  auto st = eng.stats();
  eng.stop();

  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r1.cached);
  EXPECT_FALSE(r2.cached);
  EXPECT_EQ(pp::score_of(r1.result.value), pp::score_of(r2.result.value));
  EXPECT_EQ(st.batches, 2u) << "cache off: both repeats execute";
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_misses, 0u) << "misses are not counted when the cache is off";
}

TEST(Serve, ConcurrentIdenticalSubmissionsExecuteOnce) {
  // Acceptance: N identical concurrent submissions collapse onto ONE
  // execution with one pool lease; every waiter gets the identical
  // envelope, and a later repeat is served from the cache leaselessly.
  engine_options opt;
  opt.max_inflight_runs = 1;  // keep the executor busy with a blocker
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.ctx = native2().with_seed(5);
  engine eng(opt);

  auto big = registry::instance().make_input("lis", 12'000, 9);
  auto small = registry::instance().make_input("lis", 500, 9);
  auto& cache = pp::detail::pool_cache::instance();
  uint64_t leases_before = cache.acquires();

  auto blocker = eng.submit({"lis/parallel", big, 1});
  std::this_thread::sleep_for(20ms);  // executor now busy with the blocker

  constexpr size_t kN = 4;
  std::vector<std::future<response>> futs;
  for (size_t i = 0; i < kN; ++i) futs.push_back(eng.submit({"lis/parallel", small, 42}));
  std::vector<response> rs;
  for (auto& f : futs) rs.push_back(f.get());
  EXPECT_TRUE(blocker.get().ok());
  uint64_t leases = cache.acquires() - leases_before;
  auto st = eng.stats();

  EXPECT_EQ(st.deduped, kN - 1) << "duplicates must attach, not re-queue";
  EXPECT_EQ(st.submitted, 2u) << "blocker + one leader entered the queue";
  EXPECT_EQ(st.batches, 2u) << "blocker flush + ONE shared execution";
  EXPECT_EQ(leases, st.batches) << "deduped waiters must not cost pool leases";
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(rs[i].ok()) << rs[i].error;
    EXPECT_FALSE(rs[i].cached) << "deduped waiters are fanned out, not cache hits";
    EXPECT_EQ(pp::to_json(rs[i].result), pp::to_json(rs[0].result)) << i;
  }
  // Repeat traffic after completion: answered from the cache, still no
  // extra lease.
  response again = eng.submit({"lis/parallel", small, 42}).get();
  eng.stop();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(pp::to_json(again.result), pp::to_json(rs[0].result));
  EXPECT_EQ(cache.acquires() - leases_before, leases) << "cache hit cost a lease";

  // (The standalone comparison leases its own pool, so it runs after the
  // final lease accounting.)
  auto solo = registry::run("lis/parallel", small, eng.execution_context().with_seed(42));
  EXPECT_EQ(pp::score_of(rs[0].result.value), pp::score_of(solo.value));
}

TEST(Serve, CachedAndDedupedMatchStandaloneForEverySolver) {
  // For every registered solver: a deduped pair fans out one execution and
  // a later repeat is a cache hit — and both envelopes match a standalone
  // registry::run with the same seed, solver by solver.
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.queue_capacity = 256;
  opt.ctx = native2().with_seed(17);
  engine eng(opt);

  auto& reg = registry::instance();
  std::map<std::string, pp::problem_input> inputs;
  std::vector<std::string> names;
  for (const auto& s : reg.solvers()) {
    names.push_back(s.name);
    if (!inputs.count(s.problem)) inputs.emplace(s.problem, reg.make_input(s.problem, 300, 23));
  }

  // Blocker first so every identical pair is queued concurrently and the
  // second of each pair attaches to the first (in-flight dedup).
  auto big = registry::instance().make_input("lis", 12'000, 9);
  auto blocker = eng.submit({"lis/parallel", big, 1});
  std::this_thread::sleep_for(20ms);

  std::vector<std::pair<std::future<response>, std::future<response>>> pairs;
  for (size_t i = 0; i < names.size(); ++i) {
    const auto& in = inputs.at(reg.info(names[i])->problem);
    uint64_t seed = 1000 + i;
    pairs.emplace_back(eng.submit({names[i], in, seed}), eng.submit({names[i], in, seed}));
  }
  std::vector<std::pair<response, response>> got;
  for (auto& [a, b] : pairs) got.emplace_back(a.get(), b.get());
  EXPECT_TRUE(blocker.get().ok());
  auto st = eng.stats();
  EXPECT_EQ(st.deduped, names.size()) << "every pair's second submission must attach";

  // Cached repeats (resolved before the standalone runs below).
  std::vector<response> cached;
  for (size_t i = 0; i < names.size(); ++i) {
    const auto& in = inputs.at(reg.info(names[i])->problem);
    cached.push_back(eng.submit({names[i], in, 1000 + i}).get());
  }
  eng.stop();

  for (size_t i = 0; i < names.size(); ++i) {
    auto& [ra, rb] = got[i];
    ASSERT_TRUE(ra.ok()) << names[i] << ": " << ra.error;
    ASSERT_TRUE(rb.ok()) << names[i] << ": " << rb.error;
    EXPECT_EQ(pp::to_json(ra.result), pp::to_json(rb.result))
        << names[i] << ": fanned-out waiters must get the identical envelope";
    ASSERT_TRUE(cached[i].ok()) << names[i] << ": " << cached[i].error;
    EXPECT_TRUE(cached[i].cached) << names[i];
    EXPECT_EQ(pp::to_json(cached[i].result), pp::to_json(ra.result)) << names[i];

    const auto& in = inputs.at(reg.info(names[i])->problem);
    auto solo = registry::run(names[i], in, eng.execution_context().with_seed(1000 + i));
    EXPECT_EQ(pp::score_of(ra.result.value), pp::score_of(solo.value)) << names[i];
    EXPECT_EQ(pp::summary_of(ra.result.value), pp::summary_of(solo.value)) << names[i];
    EXPECT_EQ(ra.result.input_fp, solo.input_fp) << names[i];
  }
}

TEST(Serve, WaiterDeadlineNeverPoisonsSharedExecution) {
  // One waiter's deadline must never cancel (or fail) the execution the
  // other waiters share — in either direction.
  auto small = registry::instance().make_input("lis", 300, 9);
  auto big = registry::instance().make_input("lis", 12'000, 9);

  // (a) Follower with a deadline attaches to a deadline-less leader: the
  // follower expires while queued, the leader's execution is untouched.
  {
    engine_options opt;
    opt.max_inflight_runs = 1;
    opt.workers_per_run = 2;
    opt.batch_window = std::chrono::microseconds{0};
    opt.max_batch = 1;
    opt.ctx = native2().with_seed(5);
    engine eng(opt);
    auto blocker = eng.submit({"lis/parallel", big, 1});
    std::this_thread::sleep_for(20ms);

    auto leader = eng.submit({"lis/parallel", small, 60});
    request dup;
    dup.solver = "lis/parallel";
    dup.input = small;
    dup.seed = 60;
    dup.deadline = std::chrono::steady_clock::now() + 1ms;
    auto follower = eng.submit(std::move(dup));
    std::this_thread::sleep_for(10ms);  // follower's deadline blows while queued

    response rf = follower.get();
    response rl = leader.get();
    EXPECT_TRUE(blocker.get().ok());
    auto st = eng.stats();
    eng.stop();

    EXPECT_FALSE(rf.ok());
    EXPECT_NE(rf.error.find("expired"), std::string::npos) << rf.error;
    ASSERT_TRUE(rl.ok()) << rl.error;
    auto solo = registry::run("lis/parallel", small, eng.execution_context().with_seed(60));
    EXPECT_EQ(pp::score_of(rl.result.value), pp::score_of(solo.value));
    EXPECT_EQ(st.expired, 1u);
    EXPECT_EQ(st.cancelled, 0u) << "the shared execution must not be cancelled";
  }

  // (b) The LEADER's deadline blows while queued: its promise expires, but
  // the deadline-less follower inherits the execution and completes.
  {
    engine_options opt;
    opt.max_inflight_runs = 1;
    opt.workers_per_run = 2;
    opt.batch_window = std::chrono::microseconds{0};
    opt.max_batch = 1;
    opt.ctx = native2().with_seed(5);
    engine eng(opt);
    auto blocker = eng.submit({"lis/parallel", big, 1});
    std::this_thread::sleep_for(20ms);

    request doomed;
    doomed.solver = "lis/parallel";
    doomed.input = small;
    doomed.seed = 61;
    doomed.deadline = std::chrono::steady_clock::now() + 5ms;
    auto leader = eng.submit(std::move(doomed));
    auto follower = eng.submit({"lis/parallel", small, 61});
    std::this_thread::sleep_for(15ms);  // leader's deadline blows while queued

    response rl = leader.get();
    response rf = follower.get();
    EXPECT_TRUE(blocker.get().ok());
    auto st = eng.stats();
    eng.stop();

    EXPECT_FALSE(rl.ok());
    EXPECT_NE(rl.error.find("expired"), std::string::npos) << rl.error;
    ASSERT_TRUE(rf.ok()) << "the surviving waiter must inherit the execution: " << rf.error;
    auto solo = registry::run("lis/parallel", small, eng.execution_context().with_seed(61));
    EXPECT_EQ(pp::score_of(rf.result.value), pp::score_of(solo.value));
    EXPECT_EQ(st.expired, 1u);
    EXPECT_EQ(st.cancelled, 0u);
  }
}

TEST(Serve, CancelledSoleExecutionIsNotCached) {
  // A cancelled result must never be served to later traffic: resubmitting
  // the same (solver, fingerprint, seed) after a mid-run cancellation
  // executes fresh and succeeds.
  auto in = registry::instance().make_input("lis", 30'000, 11);
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.ctx = native2().with_seed(5);
  engine eng(opt);

  auto full = registry::run("lis/parallel", in, eng.execution_context().with_seed(1));
  ASSERT_GT(full.seconds, 0.05) << "input too small to observe a mid-run cancel";

  request req;
  req.solver = "lis/parallel";
  req.input = in;
  req.seed = 1;
  req.deadline = std::chrono::steady_clock::now() + 20ms;
  response r1 = eng.submit(std::move(req)).get();
  EXPECT_FALSE(r1.ok());
  EXPECT_NE(r1.error.find("cancelled"), std::string::npos) << r1.error;

  response r2 = eng.submit({"lis/parallel", in, 1}).get();
  auto st = eng.stats();
  eng.stop();

  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_FALSE(r2.cached) << "a cancelled execution must not seed the cache";
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.batches, 2u) << "the resubmission must execute fresh";
  EXPECT_EQ(pp::score_of(r2.result.value), pp::score_of(full.value));
}

TEST(Serve, RunningCancellableExecutionRefusesJoiners) {
  // A duplicate arriving while a CANCELLABLE twin is mid-run must not
  // attach (the shared token could poison it); it queues its own execution
  // instead — correct, just uncollapsed.
  auto in = registry::instance().make_input("lis", 30'000, 13);
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.ctx = native2().with_seed(5);
  engine eng(opt);

  auto full = registry::run("lis/parallel", in, eng.execution_context().with_seed(7));
  ASSERT_GT(full.seconds, 0.05) << "input too small for the join to land mid-run";

  request first;
  first.solver = "lis/parallel";
  first.input = in;
  first.seed = 7;
  first.deadline = std::chrono::steady_clock::now() + 10s;  // cancellable, never fires
  auto f1 = eng.submit(std::move(first));
  std::this_thread::sleep_for(20ms);  // first is now running under its token
  auto f2 = eng.submit({"lis/parallel", in, 7});  // no deadline

  response r1 = f1.get();
  response r2 = f2.get();
  auto st = eng.stats();
  eng.stop();

  ASSERT_TRUE(r1.ok()) << r1.error;
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_EQ(st.deduped, 0u) << "must not join a cancellable mid-run execution";
  EXPECT_EQ(st.batches, 2u);
  EXPECT_EQ(pp::score_of(r1.result.value), pp::score_of(r2.result.value));
  EXPECT_EQ(pp::score_of(r1.result.value), pp::score_of(full.value));
}

TEST(Serve, InteractiveDuplicatePromotesQueuedBatchExecution) {
  // Queue batch-class A then B behind a busy executor, then submit an
  // interactive duplicate of B: B's one execution jumps ahead of A and
  // answers both of its callers with the same envelope.
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 2;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.ctx = native2().with_seed(7);
  engine eng(opt);

  auto big = registry::instance().make_input("lis", 30'000, 9);
  auto small = registry::instance().make_input("lis", 200, 9);
  auto blocker = eng.submit({"lis/parallel", big, 1});
  std::this_thread::sleep_for(20ms);  // executor now busy with the blocker

  std::mutex m;
  std::vector<std::pair<std::string, response>> got;
  auto tag = [&](std::string label) {
    return [&, label = std::move(label)](response r) {
      std::lock_guard<std::mutex> lk(m);
      got.emplace_back(label, std::move(r));
    };
  };
  auto submit = [&](uint64_t seed, pp::serve::priority prio, std::string label) {
    request req;
    req.solver = "lis/parallel";
    req.input = small;
    req.seed = seed;
    req.prio = prio;
    eng.submit(std::move(req), tag(std::move(label)));
  };
  submit(10, pp::serve::priority::batch, "a");
  submit(11, pp::serve::priority::batch, "b");
  const uint64_t deduped_before = eng.stats().deduped;
  submit(11, pp::serve::priority::interactive, "b");
  const uint64_t deduped_after = eng.stats().deduped;
  EXPECT_TRUE(blocker.get().ok());
  eng.stop(/*drain=*/true);

  EXPECT_EQ(deduped_after, deduped_before + 1) << "the duplicate must join B's execution";
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, "b");
  EXPECT_EQ(got[1].first, "b");
  EXPECT_EQ(got[2].first, "a") << "the promoted execution must run before A";
  for (const auto& [label, r] : got) ASSERT_TRUE(r.ok()) << label << ": " << r.error;
  EXPECT_EQ(pp::to_json(got[0].second.result), pp::to_json(got[1].second.result));
  EXPECT_NE(pp::to_json(got[0].second.result), pp::to_json(got[2].second.result));
}

TEST(Serve, LruEvictionHonorsCacheBound) {
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 1;
  opt.batch_window = std::chrono::microseconds{0};
  opt.max_batch = 1;
  opt.cache_entries = 2;
  opt.ctx = native2().with_workers(1).with_seed(5);
  engine eng(opt);

  std::vector<pp::problem_input> ins;
  for (uint64_t s = 1; s <= 3; ++s) ins.push_back(registry::instance().make_input("lis", 200, s));

  // Fill: A, B, C -> LRU order [C, B], A evicted.
  for (size_t i = 0; i < 3; ++i) EXPECT_TRUE(eng.submit({"lis/parallel", ins[i], 9}).get().ok());
  // A must re-execute (evicted) -> [A, C]; then C is still a hit.
  response ra = eng.submit({"lis/parallel", ins[0], 9}).get();
  response rc = eng.submit({"lis/parallel", ins[2], 9}).get();
  auto st = eng.stats();
  eng.stop();

  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rc.ok());
  EXPECT_FALSE(ra.cached) << "oldest entry must have been evicted at the bound";
  EXPECT_TRUE(rc.cached);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_misses, 4u);
  EXPECT_EQ(st.batches, 4u);
}

// ---- wire protocol (pp::serve::connection) ---------------------------------

engine_options protocol_engine() {
  engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 1;
  opt.ctx = native2().with_workers(1).with_seed(3);
  return opt;
}

// Feed `lines` to one connection while a writer thread drains it (the
// transports' reader/writer hand-off); the replies in the order handed out.
std::vector<pp::serve::connection::reply> converse(engine& eng, pp::serve::session_table& tab,
                                                   const std::vector<std::string>& lines) {
  pp::serve::connection conn(eng, tab, /*max_n=*/1'000);
  std::vector<pp::serve::connection::reply> out;
  std::thread writer([&] {
    while (auto r = conn.next()) out.push_back(std::move(*r));
  });
  for (const auto& l : lines) conn.feed_line(l);
  conn.finish();
  writer.join();
  return out;
}

pp::json::value parsed(const std::string& line) {
  pp::json::value v;
  std::string err;
  EXPECT_TRUE(pp::json::parse(line, v, &err)) << err << " in " << line;
  return v;
}

TEST(Protocol, MalformedLinesAnswerOneErrorEachInOrder) {
  // Each bad line gets exactly one ok:false response, in request order,
  // whose error names the offending field — between two good requests.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {R"({"solver":"lis/parallel","n":)", "JSON"},
      {R"({"solver":"lis/parallel","n":"5"})", "\"n\""},
      {R"({"solver":"lis/parallel","n":2000.7})", "\"n\""},
      {R"({"solver":"lis/parallel","n":1001})", "\"n\""},
      {R"({"solver":"lis/parallel","n":50,"priority":"urgent"})", "\"priority\""},
      {R"({"solver":"lis/parallel","n":50,"deadline_ms":0})", "\"deadline_ms\""},
      {R"({"solver":"lis/parallel","n":50,"seed":1.5})", "\"seed\""},
      {R"({"stats":false})", "\"stats\""},
      {R"({"n":50})", "\"solver\""},
      {R"({"solver":"no/such","n":50})", "solver"},
      {R"({"session":"frobnicate","name":"g"})", "session"},
      {R"({"session":"delta","name":"g","add_edges":[[1,2]]})", "\"add_edges\""},
  };
  const std::string good = R"({"solver":"lis/parallel","n":50,"seed":7})";
  std::vector<std::string> lines{good};
  for (const auto& [line, field] : bad) lines.push_back(line);
  lines.push_back(good);

  engine eng(protocol_engine());
  pp::serve::session_table tab(4);
  auto replies = converse(eng, tab, lines);
  ASSERT_EQ(replies.size(), lines.size());
  for (size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].id, std::to_string(i));
    pp::json::value r = parsed(replies[i].line);
    ASSERT_NE(r.find("ok"), nullptr) << replies[i].line;
    bool edge = i == 0 || i + 1 == replies.size();
    EXPECT_EQ(r.find("ok")->as_bool(), edge) << replies[i].line;
    if (edge) continue;
    const std::string& field = bad[i - 1].second;
    ASSERT_NE(r.find("error"), nullptr) << replies[i].line;
    EXPECT_NE(r.find("error")->as_string().find(field), std::string::npos)
        << lines[i] << " -> " << replies[i].line;
  }
  EXPECT_EQ(parsed(replies.front().line).find("result")->find("score")->as_int64(),
            parsed(replies.back().line).find("result")->find("score")->as_int64());
  // The repeat rides the first solve (dedup or cache hit); refused lines
  // never reach the engine.
  EXPECT_EQ(eng.stats().submitted, 1u);
}

TEST(Protocol, StructuredIdEchoedVerbatim) {
  engine eng(protocol_engine());
  pp::serve::session_table tab(4);
  auto replies = converse(eng, tab,
                          {R"({"id":{"k":[1,"x",true,null]},"stats":true})",
                           R"({"id":"req-b","n":"bad","solver":"lis/parallel"})"});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].id, R"({"k": [1, "x", true, null]})");
  const std::string head = R"({"id": {"k": [1, "x", true, null]}, "ok": true, "stats": {)";
  EXPECT_EQ(replies[0].line.rfind(head, 0), 0u) << replies[0].line;
  EXPECT_EQ(replies[1].id, R"("req-b")");
  EXPECT_EQ(parsed(replies[1].line).find("id")->as_string(), "req-b");
}

TEST(Protocol, BlankLineConsumesNoDefaultId) {
  engine eng(protocol_engine());
  pp::serve::session_table tab(4);
  auto replies = converse(eng, tab, {R"({"stats":true})", "", " \t\r", R"({"metrics":true})"});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].id, "0");
  EXPECT_EQ(replies[1].id, "1");
  EXPECT_TRUE(parsed(replies[1].line).find("metrics")->is_string());
}

TEST(Protocol, SessionRoundTripReportsPinnedVersion) {
  engine eng(protocol_engine());
  pp::serve::session_table tab(4);
  auto replies = converse(
      eng, tab,
      {R"({"session":"create","name":"g","problem":"sssp","n":300,"seed":5})",
       R"({"session":"delta","name":"g","add_edges":[[1,2,1]]})",
       R"({"session":"solve","name":"g","solver":"sssp/incremental","seed":11})",
       R"({"session":"drop","name":"g"})"});
  ASSERT_EQ(replies.size(), 4u);
  std::vector<pp::json::value> r;
  for (const auto& rep : replies) {
    r.push_back(parsed(rep.line));
    ASSERT_TRUE(r.back().find("ok")->as_bool()) << rep.line;
  }
  const pp::json::value* created = r[0].find("session");
  const pp::json::value* delta = r[1].find("session");
  const pp::json::value* solved = r[2].find("session");
  EXPECT_EQ(created->find("version")->as_int64(), 0);
  EXPECT_EQ(delta->find("version")->as_int64(), 1);
  EXPECT_NE(delta->find("fingerprint")->as_string(), created->find("fingerprint")->as_string());
  // The solve was parsed after the delta and before the drop: it pins v1.
  EXPECT_EQ(solved->find("version")->as_int64(), 1);
  EXPECT_EQ(solved->find("fingerprint")->as_string(), delta->find("fingerprint")->as_string());
  EXPECT_EQ(r[2].find("result")->find("status")->as_string(), "ok");
  EXPECT_TRUE(r[3].find("session")->find("dropped")->as_bool());
  EXPECT_EQ(tab.size(), 0u);
}

TEST(Protocol, SessionSolveDescribesThePinnedVersionUnderDeltas) {
  // A writer thread installs one-new-edge deltas in a loop while a
  // connection solves the same session: every solve's descriptor must be
  // the one version it pinned, so its edge count is elems0 + version.
  engine eng(protocol_engine());
  pp::serve::session_table tab(4);
  constexpr pp::vertex_t n = 1000;
  pp::sssp_input base;
  base.g = pp::wgraph::from_edges(n, {});
  const size_t elems0 = tab.create("g", base).elems;

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t i = 0; i < uint64_t{n} * n && !stop.load(std::memory_order_relaxed); ++i) {
      pp::serve::session_delta d;
      d.add_edges = {{static_cast<pp::vertex_t>(i / n), static_cast<pp::vertex_t>(i % n), 1}};
      tab.apply("g", d);
    }
  });
  std::vector<std::string> lines(
      300, R"({"session":"solve","name":"g","solver":"sssp/dijkstra","seed":1})");
  auto replies = converse(eng, tab, lines);
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  ASSERT_EQ(replies.size(), lines.size());
  for (const auto& rep : replies) {
    pp::json::value r = parsed(rep.line);
    ASSERT_TRUE(r.find("ok")->as_bool()) << rep.line;
    const pp::json::value* desc = r.find("session");
    ASSERT_NE(desc, nullptr) << rep.line;
    EXPECT_EQ(desc->find("elems")->as_uint64(), elems0 + desc->find("version")->as_uint64())
        << rep.line;
  }
}

TEST(Protocol, PipelinedSessionTrafficAnswersInRequestOrder) {
  // Two sessions' create/solve/delta lines, interleaved and all fed before
  // any reply is read, through an engine with two executors: the
  // connection hands the replies out in request order, each solve reports
  // the version it pinned at parse time, and the label feedback leaves
  // incremental hints on each session's head.
  engine_options opt = protocol_engine();
  opt.max_inflight_runs = 2;
  engine eng(opt);
  pp::serve::session_table tab(4);
  std::vector<std::string> lines;
  std::vector<int64_t> pinned;  // the version each line's solve must report; -1 = not a solve
  for (const char* s : {"g", "h"}) {
    lines.push_back(std::string(R"({"session":"create","name":")") + s +
                    R"(","problem":"sssp","n":300,"seed":5})");
    pinned.push_back(-1);
  }
  for (int v = 0; v < 3; ++v) {
    for (const char* s : {"g", "h"}) {
      lines.push_back(std::string(R"({"session":"solve","name":")") + s +
                      R"(","solver":"sssp/incremental","seed":11})");
      pinned.push_back(v);
    }
    if (v == 2) break;
    for (const char* s : {"g", "h"}) {
      lines.push_back(std::string(R"({"session":"delta","name":")") + s +
                      R"(","add_edges":[[0,)" + std::to_string(10 + v) + R"(,1]]})");
      pinned.push_back(-1);
    }
  }

  pp::serve::connection conn(eng, tab, /*max_n=*/1'000);
  for (const auto& l : lines) conn.feed_line(l);
  conn.finish();
  std::vector<pp::serve::connection::reply> replies;
  while (auto r = conn.next()) replies.push_back(std::move(*r));

  ASSERT_EQ(replies.size(), lines.size());
  for (size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].id, std::to_string(i));
    pp::json::value r = parsed(replies[i].line);
    ASSERT_TRUE(r.find("ok")->as_bool()) << replies[i].line;
    if (pinned[i] < 0) continue;
    EXPECT_EQ(r.find("result")->find("status")->as_string(), "ok") << replies[i].line;
    EXPECT_EQ(r.find("session")->find("version")->as_int64(), pinned[i]) << replies[i].line;
  }
  for (const char* s : {"g", "h"}) {
    EXPECT_EQ(tab.describe(s).version, 2u) << s;
    EXPECT_TRUE(tab.describe(s).hints) << s << ": the head's solve must leave labels";
  }
}

}  // namespace
