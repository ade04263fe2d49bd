// Tests for the execution-context API (core/context.h + the context
// overloads of par_do/parallel_for in parallel/api.h): scoping semantics
// and nested parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/context.h"
#include "parallel/api.h"
#include "test_backends.h"

namespace {

using pp::backend_kind;
using pp::context;

TEST(Context, Defaults) {
  context c;
  EXPECT_EQ(c.backend, backend_kind::native);
  EXPECT_EQ(c.workers, 0u);
  EXPECT_EQ(c.seed, 1u);
  EXPECT_EQ(c.grain, 0u);
  EXPECT_EQ(c.pivot, pp::pivot_policy::rightmost);
}

TEST(Context, WithBuilders) {
  context c;
  context d = c.with_backend(backend_kind::sequential)
                  .with_workers(3)
                  .with_seed(42)
                  .with_grain(128)
                  .with_pivot(pp::pivot_policy::uniform_random);
  EXPECT_EQ(d.backend, backend_kind::sequential);
  EXPECT_EQ(d.workers, 3u);
  EXPECT_EQ(d.seed, 42u);
  EXPECT_EQ(d.grain, 128u);
  EXPECT_EQ(d.pivot, pp::pivot_policy::uniform_random);
  // the source context is untouched
  EXPECT_EQ(c.backend, backend_kind::native);
  EXPECT_EQ(c.seed, 1u);
}

TEST(Context, ScopedContextActivatesAndRestores) {
  // With no scope active, current_context snapshots the process defaults.
  pp::default_context().seed = 999;
  EXPECT_EQ(pp::current_context().seed, 999u);
  {
    pp::scoped_context outer(context{}.with_seed(7));
    EXPECT_EQ(pp::current_context().seed, 7u);
    {
      pp::scoped_context inner(pp::current_context().with_backend(backend_kind::sequential));
      EXPECT_EQ(pp::current_context().seed, 7u);
      EXPECT_EQ(pp::current_context().backend, backend_kind::sequential);
    }
    EXPECT_EQ(pp::current_context().seed, 7u);
    EXPECT_EQ(pp::current_context().backend, backend_kind::native);
  }
  EXPECT_EQ(pp::current_context().seed, 999u);
  pp::default_context().seed = 1;
  EXPECT_EQ(pp::current_context().seed, 1u);
}

class ContextBackends : public ::testing::TestWithParam<backend_kind> {};

TEST_P(ContextBackends, ParallelForExplicitContext) {
  context ctx = context{}.with_backend(GetParam());
  constexpr size_t n = 50'000;
  std::vector<int64_t> out(n, 0);
  pp::parallel_for(ctx, 0, n, [&](size_t i) { out[i] = static_cast<int64_t>(3 * i + 1); });
  for (size_t i = 0; i < n; i += 997) EXPECT_EQ(out[i], static_cast<int64_t>(3 * i + 1));
  EXPECT_EQ(out[n - 1], static_cast<int64_t>(3 * (n - 1) + 1));
}

TEST_P(ContextBackends, ParDoExplicitContext) {
  context ctx = context{}.with_backend(GetParam());
  int a = 0, b = 0;
  pp::par_do(ctx, [&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST_P(ContextBackends, NestedParallelForIsCorrect) {
  // Nested parallelism: outer rows x inner cols. All backends must
  // produce the identical matrix.
  context ctx = context{}.with_backend(GetParam());
  constexpr size_t rows = 64, cols = 2'000;
  std::vector<uint32_t> m(rows * cols, 0);
  std::atomic<size_t> writes{0};
  pp::parallel_for(ctx, 0, rows, [&](size_t r) {
    pp::parallel_for(0, cols, [&](size_t c) {
      m[r * cols + c] = static_cast<uint32_t>(r * 31 + c * 7);
      writes.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(writes.load(), rows * cols);
  for (size_t r = 0; r < rows; r += 13)
    for (size_t c = 0; c < cols; c += 499)
      EXPECT_EQ(m[r * cols + c], static_cast<uint32_t>(r * 31 + c * 7));
}

TEST_P(ContextBackends, ScopedContextThreadsBackendIntoImplicitCalls) {
  context ctx = context{}.with_backend(GetParam());
  pp::scoped_context scope(ctx);
  EXPECT_EQ(pp::current_context().backend, GetParam());
  constexpr size_t n = 10'000;
  std::vector<int> out(n, 0);
  pp::parallel_for(0, n, [&](size_t i) { out[i] = static_cast<int>(i % 17); });
  for (size_t i = 0; i < n; i += 37) EXPECT_EQ(out[i], static_cast<int>(i % 17));
}

TEST_P(ContextBackends, GrainOverrideStillCorrect) {
  context ctx = context{}.with_backend(GetParam()).with_grain(1'000'000);  // one chunk
  constexpr size_t n = 20'000;
  std::vector<int> out(n, 0);
  pp::parallel_for(ctx, 0, n, [&](size_t i) { out[i] = 1; });
  size_t sum = 0;
  for (auto v : out) sum += static_cast<size_t>(v);
  EXPECT_EQ(sum, n);
}

TEST_P(ContextBackends, ForkedHalvesInheritTheScope) {
  // Every thread that executes part of a run — the forking thread or a
  // native thief — reads the run's innermost scope; a scope opened inside
  // one body shadows only that body's own subtree.
  constexpr size_t rows = 8, cols = 256, shadowed = 3;
  pp::run_scope scope(
      context{}.with_backend(GetParam()).with_workers(2).with_grain(1).with_seed(77));

  std::vector<uint64_t> seed(rows * cols, 0);
  std::vector<backend_kind> backend(rows * cols, backend_kind::sequential);
  std::vector<uint64_t> after_shadow(rows, 0);
  pp::parallel_for(0, rows, [&](size_t r) {
    auto row = [&] {
      pp::parallel_for(0, cols, [&](size_t c) {
        seed[r * cols + c] = pp::current_context().seed;
        backend[r * cols + c] = pp::current_context().backend;
      });
    };
    if (r == shadowed) {
      pp::scoped_context shadow(pp::current_context().with_seed(5));
      row();
    } else {
      row();
    }
    after_shadow[r] = pp::current_context().seed;
  });
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t want = r == shadowed ? 5 : 77;
    size_t wrong = 0;
    for (size_t c = 0; c < cols; ++c)
      wrong += seed[r * cols + c] != want || backend[r * cols + c] != GetParam();
    EXPECT_EQ(wrong, 0u) << "row " << r;
    EXPECT_EQ(after_shadow[r], 77u) << "row " << r;
  }

  uint64_t left = 0, right = 0;
  backend_kind left_backend = backend_kind::sequential, right_backend = left_backend;
  pp::par_do(
      [&] {
        left = pp::current_context().seed;
        left_backend = pp::current_context().backend;
      },
      [&] {
        right = pp::current_context().seed;
        right_backend = pp::current_context().backend;
      });
  EXPECT_EQ(left, 77u);
  EXPECT_EQ(right, 77u);
  EXPECT_EQ(left_backend, GetParam());
  EXPECT_EQ(right_backend, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ContextBackends,
                         ::testing::ValuesIn(pp_test::kBackends),
                         [](const auto& info) {
                           return std::string(pp::backend_name(info.param));
                         });

TEST(Context, NumWorkers) {
  EXPECT_EQ(pp::num_workers(context{}.with_backend(backend_kind::sequential)), 1u);
  EXPECT_GE(pp::num_workers(context{}.with_backend(backend_kind::native)), 1u);
  // context::workers is honored exactly on the native backend — each width
  // gets its own pool from the cache, so no singleton clamps the request.
  unsigned hw = pp::num_workers(context{}.with_backend(backend_kind::native));
  EXPECT_EQ(pp::num_workers(context{}.with_backend(backend_kind::native).with_workers(1)), 1u);
  EXPECT_EQ(
      pp::num_workers(context{}.with_backend(backend_kind::native).with_workers(hw + 3)),
      hw + 3);
}

TEST(Context, ConcurrentScopesDoNotCrossContaminate) {
  // Two runs live at the same time on two threads, each with its own seed
  // and its own leased pool. Grain 1 forks every iteration, so halves get
  // stolen; every thread executing a run's loop body — its own thread and
  // its pool's thieves alike — must read that run's seed, never the other.
  constexpr size_t n = 4096;
  const uint64_t seeds[2] = {101, 202};
  std::vector<uint64_t> seen[2] = {std::vector<uint64_t>(n, 0), std::vector<uint64_t>(n, 0)};
  std::barrier both_live(2);
  auto run = [&](int t) {
    pp::run_scope scope(context{}
                            .with_backend(backend_kind::native)
                            .with_workers(2)
                            .with_grain(1)
                            .with_seed(seeds[t]));
    both_live.arrive_and_wait();  // both scopes are installed
    pp::parallel_for(0, n, [&](size_t i) { seen[t][i] = pp::current_context().seed; });
    both_live.arrive_and_wait();  // neither scope closes before both loops end
  };
  std::thread a(run, 0), b(run, 1);
  a.join();
  b.join();
  for (int t = 0; t < 2; ++t) {
    size_t wrong = 0;
    for (uint64_t s : seen[t]) wrong += s != seeds[t];
    EXPECT_EQ(wrong, 0u) << "run " << t << " read another run's seed";
  }
}

TEST(Context, ParseBackend) {
  EXPECT_EQ(pp::parse_backend("native"), backend_kind::native);
  EXPECT_EQ(pp::parse_backend("sequential"), backend_kind::sequential);
  EXPECT_EQ(pp::parse_backend("seq"), backend_kind::sequential);
  EXPECT_FALSE(pp::parse_backend("tbb").has_value());
  EXPECT_FALSE(pp::parse_backend("openmp").has_value());
  EXPECT_FALSE(pp::parse_backend("omp").has_value());
}

}  // namespace
