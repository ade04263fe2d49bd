// Tests for the work-stealing scheduler and the par_do/parallel_for API,
// across all three backends, plus the per-context pool cache: leases pin a
// run to a pool of exactly ctx.workers deques, workers=1 runs are strictly
// sequential, and concurrent runs never share a pool.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "parallel/api.h"
#include "test_backends.h"

namespace {

using pp::backend_kind;

class BackendTest : public ::testing::TestWithParam<backend_kind> {
 protected:
  // Every test body runs under the parametrized backend.
  pp::scoped_context scope_{pp::context{}.with_backend(GetParam())};
};

TEST_P(BackendTest, ParDoRunsBothSides) {
  std::atomic<int> left{0}, right{0};
  pp::par_do([&] { left = 1; }, [&] { right = 2; });
  EXPECT_EQ(left.load(), 1);
  EXPECT_EQ(right.load(), 2);
}

TEST_P(BackendTest, ParDoNested) {
  std::atomic<long> sum{0};
  pp::par_do(
      [&] {
        pp::par_do([&] { sum += 1; }, [&] { sum += 2; });
      },
      [&] {
        pp::par_do([&] { sum += 4; }, [&] { sum += 8; });
      });
  EXPECT_EQ(sum.load(), 15);
}

TEST_P(BackendTest, ParDoDeepRecursionFib) {
  // Binary-forked fib: thousands of forks, exercises stealing + helping.
  std::function<long(int)> fib = [&](int n) -> long {
    if (n < 2) return n;
    long a = 0, b = 0;
    pp::par_do([&] { a = fib(n - 1); }, [&] { b = fib(n - 2); });
    return a + b;
  };
  EXPECT_EQ(fib(20), 6765);
}

TEST_P(BackendTest, ParallelForCoversRangeExactlyOnce) {
  constexpr size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  pp::parallel_for(0, n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST_P(BackendTest, ParallelForEmptyAndSingle) {
  std::atomic<int> count{0};
  pp::parallel_for(5, 5, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 0);
  pp::parallel_for(7, 8, [&](size_t i) {
    EXPECT_EQ(i, 7u);
    count++;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST_P(BackendTest, ParallelForTinyGrain) {
  constexpr size_t n = 4096;
  std::vector<int> out(n, 0);
  pp::parallel_for(0, n, [&](size_t i) { out[i] = static_cast<int>(i); }, 1);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], static_cast<int>(i));
}

TEST_P(BackendTest, NestedParallelForInsideParDo) {
  constexpr size_t n = 10000;
  std::vector<int> a(n, 0), b(n, 0);
  pp::par_do([&] { pp::parallel_for(0, n, [&](size_t i) { a[i] = 1; }); },
             [&] { pp::parallel_for(0, n, [&](size_t i) { b[i] = 2; }); });
  EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0L), static_cast<long>(n));
  EXPECT_EQ(std::accumulate(b.begin(), b.end(), 0L), 2L * static_cast<long>(n));
}

TEST_P(BackendTest, ManySequentialParallelRegions) {
  // Regression guard against leaks/deadlocks in repeated entry.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> c{0};
    pp::parallel_for(0, 100, [&](size_t) { c++; });
    ASSERT_EQ(c.load(), 100);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::ValuesIn(pp_test::backends_under_test()),
                         [](const auto& info) {
                           return std::string(pp::backend_name(info.param));
                         });

TEST(Scheduler, NumWorkersPositive) {
  EXPECT_GE(pp::num_workers(), 1u);
}

TEST(Scheduler, LeaseHolderIsWorkerZero) {
  // Outside any run the thread belongs to no pool; under a scheduler
  // binding it owns slot 0 of the leased pool.
  EXPECT_EQ(pp::detail::this_thread_pool(), nullptr);
  {
    pp::scoped_scheduler sched(pp::context{}.with_backend(pp::backend_kind::native));
    auto* pool = pp::detail::this_thread_pool();
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->worker_id(), 0);
    EXPECT_EQ(pool->num_workers(), sched.workers());
  }
  EXPECT_EQ(pp::detail::this_thread_pool(), nullptr);
}

TEST(Scheduler, ContextWorkersSizesThePool) {
  // A run asking for W workers executes on a pool of exactly W deques —
  // context::workers is the pool size, not an advisory clamp.
  for (unsigned w : {1u, 2u, 3u}) {
    pp::context ctx = pp::context{}.with_backend(pp::backend_kind::native).with_workers(w);
    pp::scoped_scheduler sched(ctx);
    EXPECT_EQ(sched.workers(), w);
    EXPECT_EQ(pp::detail::this_thread_pool()->num_workers(), w);
    EXPECT_EQ(pp::num_workers(ctx), w);
  }
}

TEST(Scheduler, WorkersOneRunsStrictlySequentially) {
  // Regression (ISSUE 2 satellite 1): a native workers=1 run must be
  // observably single-threaded — no thread other than the caller touches
  // the probe, even though wider pools exist in the cache from other tests.
  pp::context ctx = pp::context{}.with_backend(pp::backend_kind::native).with_workers(1);
  const auto caller = std::this_thread::get_id();
  std::mutex m;
  std::set<std::thread::id> seen;
  pp::parallel_for(ctx, 0, 50'000, [&](size_t) {
    std::lock_guard<std::mutex> lk(m);
    seen.insert(std::this_thread::get_id());
  }, /*grain=*/1);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);

  // Same through par_do: both sides on the calling thread.
  std::set<std::thread::id> ids;
  pp::par_do(ctx, [&] { ids.insert(std::this_thread::get_id()); },
             [&] { ids.insert(std::this_thread::get_id()); });
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), caller);
}

TEST(Scheduler, WiderContextUsesMultipleThreads) {
  // Sanity counterpart: with >= 2 workers and tiny grain, some iteration
  // should land off the calling thread (steals are stochastic, so retry).
  pp::context ctx = pp::context{}.with_backend(pp::backend_kind::native).with_workers(2);
  bool off_thread = false;
  for (int attempt = 0; attempt < 20 && !off_thread; ++attempt) {
    const auto caller = std::this_thread::get_id();
    std::mutex m;
    std::set<std::thread::id> seen;
    pp::parallel_for(ctx, 0, 100'000, [&](size_t) {
      std::lock_guard<std::mutex> lk(m);
      seen.insert(std::this_thread::get_id());
    }, /*grain=*/16);
    EXPECT_TRUE(seen.count(caller));
    off_thread = seen.size() > 1;
  }
  EXPECT_TRUE(off_thread) << "2-worker runs never left the calling thread";
}

TEST(Scheduler, PoolCacheReusesByWidth) {
  auto& cache = pp::detail::pool_cache::instance();
  pp::context ctx = pp::context{}.with_backend(pp::backend_kind::native).with_workers(3);
  { pp::scoped_scheduler s(ctx); }
  size_t created = cache.pools_created();
  // Re-running the same width must reuse the idle pool, not build another.
  { pp::scoped_scheduler s(ctx); }
  { pp::scoped_scheduler s(ctx); }
  EXPECT_EQ(cache.pools_created(), created);
}

TEST(Scheduler, ConcurrentRunsGetDistinctPools) {
  // Two top-level runs — even of the same width — never share a pool, so a
  // run's deques are never visible to another run's thieves.
  pp::detail::work_stealing_pool* a = nullptr;
  pp::detail::work_stealing_pool* b = nullptr;
  std::atomic<int> ready{0};
  auto grab = [&](pp::detail::work_stealing_pool** out, unsigned w) {
    pp::scoped_scheduler sched(
        pp::context{}.with_backend(pp::backend_kind::native).with_workers(w));
    *out = pp::detail::this_thread_pool();
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();  // overlap lifetimes
  };
  std::thread t1(grab, &a, 2u);
  std::thread t2(grab, &b, 2u);
  t1.join();
  t2.join();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(a->num_workers(), 2u);
  EXPECT_EQ(b->num_workers(), 2u);
}

TEST(Scheduler, NestedRunReusesPinnedPool) {
  // From fork to join a run stays on its leased pool: a nested scheduler
  // binding (a run inside a run) must not re-lease.
  pp::context outer = pp::context{}.with_backend(pp::backend_kind::native).with_workers(2);
  pp::scoped_scheduler s1(outer);
  auto* pinned = pp::detail::this_thread_pool();
  pp::context inner = outer.with_workers(4);  // asks wider; stays pinned
  pp::scoped_scheduler s2(inner);
  EXPECT_EQ(pp::detail::this_thread_pool(), pinned);
  EXPECT_EQ(s2.workers(), 2u);
  EXPECT_EQ(pp::num_workers(inner), 2u);  // honest: reports the pinned width
}

TEST(Scheduler, BatchHoldsOneLeaseLoopPaysPerRun) {
  // The point of the batched pipeline: K items through run_batch cost ONE
  // pool lease; the same K items as a loop of registry::run cost K.
  auto& reg = pp::registry::instance();
  auto& cache = pp::detail::pool_cache::instance();
  constexpr size_t kItems = 8;
  std::vector<pp::problem_input> inputs;
  for (size_t i = 0; i < kItems; ++i) inputs.push_back(reg.make_input("lis", 500, 40 + i));
  pp::context ctx = pp::context{}.with_backend(pp::backend_kind::native).with_workers(2);

  uint64_t before = cache.acquires();
  auto batch = pp::registry::run_batch("lis/parallel", inputs, ctx);
  EXPECT_EQ(cache.acquires() - before, 1u);
  EXPECT_EQ(batch.count(), kItems);

  before = cache.acquires();
  for (size_t i = 0; i < kItems; ++i)
    pp::registry::run("lis/parallel", inputs[i], ctx.with_seed(pp::derive_seed(ctx.seed, i)));
  EXPECT_EQ(cache.acquires() - before, kItems);
}

TEST(Scheduler, BatchNestsInsideEnclosingRun) {
  // run_batch from inside an already-scheduled run (a server request
  // handler that batches sub-tasks): the batch scope must reuse the pinned
  // pool — no second lease — and must not register as a racing top-level
  // scope with a conflicting config.
  auto& reg = pp::registry::instance();
  auto& cache = pp::detail::pool_cache::instance();
  std::vector<pp::problem_input> inputs;
  for (size_t i = 0; i < 3; ++i) inputs.push_back(reg.make_input("lis", 500, 60 + i));

  pp::context outer = pp::context{}.with_backend(pp::backend_kind::native).with_workers(2);
  pp::run_scope enclosing(outer);
  uint64_t before = cache.acquires();
  uint64_t conflicts_before = pp::detail::scope_conflicts();
  // The nested batch even asks for a different width; it stays pinned.
  auto batch = pp::registry::run_batch("lis/parallel", inputs, outer.with_workers(4));
  EXPECT_EQ(cache.acquires() - before, 0u);
  EXPECT_EQ(batch.workers, 2u);  // honest: the pinned width, not the request
  EXPECT_EQ(pp::detail::scope_conflicts(), conflicts_before);
  EXPECT_EQ(batch.count(), 3u);
}

TEST(Scheduler, PoolCacheEvictsIdleBeyondCap) {
  // ISSUE 4 satellite: a long-lived serving process that has seen many
  // distinct widths must not hold worker threads forever. Idle pools
  // beyond the LRU cap are destroyed (threads joined), least recently
  // used first; size() reports what is actually alive.
  auto& cache = pp::detail::pool_cache::instance();
  size_t old_cap = cache.idle_cap();
  cache.set_idle_cap(2);

  // Touch three distinct (unusual) widths sequentially; each release
  // pushes onto the LRU, so width 5 — the oldest — is evicted.
  for (unsigned w : {5u, 6u, 7u}) {
    pp::scoped_scheduler s(pp::context{}.with_backend(pp::backend_kind::native).with_workers(w));
  }
  EXPECT_LE(cache.pools_idle(), 2u);
  EXPECT_EQ(cache.size(), cache.pools_idle());  // nothing leased right now
  EXPECT_EQ(cache.in_use(), 0u);

  // The survivors (6, 7) are reused; the evicted width (5) is rebuilt.
  size_t created = cache.pools_created();
  { pp::scoped_scheduler s(pp::context{}.with_backend(pp::backend_kind::native).with_workers(7)); }
  { pp::scoped_scheduler s(pp::context{}.with_backend(pp::backend_kind::native).with_workers(6)); }
  EXPECT_EQ(cache.pools_created(), created);
  { pp::scoped_scheduler s(pp::context{}.with_backend(pp::backend_kind::native).with_workers(5)); }
  EXPECT_EQ(cache.pools_created(), created + 1);

  // Shrinking the cap evicts immediately.
  cache.set_idle_cap(0);
  EXPECT_EQ(cache.pools_idle(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  cache.set_idle_cap(old_cap);
}

TEST(Scheduler, PoolCacheSizeCountsLeasedPools) {
  auto& cache = pp::detail::pool_cache::instance();
  size_t old_cap = cache.idle_cap();
  size_t idle_before = cache.pools_idle();
  {
    pp::scoped_scheduler s(pp::context{}.with_backend(pp::backend_kind::native).with_workers(2));
    EXPECT_EQ(cache.in_use(), 1u);
    EXPECT_EQ(cache.size(), cache.pools_idle() + 1);
    // A leased pool is never on the idle LRU, so it can never be evicted.
    cache.set_idle_cap(0);
    EXPECT_EQ(cache.in_use(), 1u);
    cache.set_idle_cap(old_cap);
  }
  EXPECT_EQ(cache.in_use(), 0u);
  EXPECT_GE(cache.pools_idle(), idle_before > 0 ? 1u : 0u);
}

TEST(Scheduler, UnbalancedForkJoin) {
  // Left side finishes immediately; right side is heavy. The parent must
  // wait for the stolen child correctly.
  const pp::context ctx = pp::context{}.with_backend(backend_kind::native);
  std::atomic<long> sum{0};
  pp::par_do(
      ctx, [&] { sum += 1; },
      [&] {
        for (int i = 0; i < 1000; ++i) sum += 1;
      });
  EXPECT_EQ(sum.load(), 1001);
}

}  // namespace
