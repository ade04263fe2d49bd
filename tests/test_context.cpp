// Tests for the execution-context API (core/context.h + the context
// overloads of par_do/parallel_for in parallel/api.h): scoping semantics
// and the OpenMP nested-parallel_for fix.
#include <gtest/gtest.h>

#include <atomic>
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
  context d = c.with_backend(backend_kind::openmp)
                  .with_workers(3)
                  .with_seed(42)
                  .with_grain(128)
                  .with_pivot(pp::pivot_policy::uniform_random);
  EXPECT_EQ(d.backend, backend_kind::openmp);
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
  // Nested parallelism: outer rows x inner cols. Under OpenMP the inner
  // loops used to silently serialize; now they run as tasks. All backends
  // must produce the identical matrix.
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

INSTANTIATE_TEST_SUITE_P(AllBackends, ContextBackends,
                         ::testing::ValuesIn(pp_test::backends_under_test()),
                         [](const auto& info) {
                           return std::string(pp::backend_name(info.param));
                         });

TEST(Context, NumWorkers) {
  EXPECT_EQ(pp::num_workers(context{}.with_backend(backend_kind::sequential)), 1u);
  EXPECT_EQ(pp::num_workers(context{}.with_backend(backend_kind::openmp).with_workers(3)), 3u);
  EXPECT_GE(pp::num_workers(context{}.with_backend(backend_kind::native)), 1u);
  // context::workers is honored exactly on the native backend — each width
  // gets its own pool from the cache, so no singleton clamps the request.
  unsigned hw = pp::num_workers(context{}.with_backend(backend_kind::native));
  EXPECT_EQ(pp::num_workers(context{}.with_backend(backend_kind::native).with_workers(1)), 1u);
  EXPECT_EQ(
      pp::num_workers(context{}.with_backend(backend_kind::native).with_workers(hw + 3)),
      hw + 3);
}

TEST(Context, EqualityComparesEveryKnob) {
  context a;
  EXPECT_EQ(a, context{});
  EXPECT_FALSE(a == a.with_workers(2));
  EXPECT_FALSE(a == a.with_seed(7));
  EXPECT_FALSE(a == a.with_backend(backend_kind::openmp));
  EXPECT_FALSE(a == a.with_grain(64));
  EXPECT_FALSE(a == a.with_pivot(pp::pivot_policy::uniform_random));
}

TEST(Context, ScopeRaceDetectorFlagsConflictingTopLevelScopes) {
  // Two live top-level scoped_contexts with different configs is exactly
  // the cross-contamination race the detector exists for. This test only
  // checks the counter (the assert fires in debug builds); NDEBUG test
  // runs still observe the flagged conflict.
  uint64_t before = pp::detail::scope_conflicts();
  pp::detail::scopes().assert_on_conflict.store(false);  // deliberate race below
  std::atomic<int> phase{0};
  std::thread other([&] {
    pp::scoped_context scope(context{}.with_seed(111));
    phase.store(1);
    while (phase.load() < 2) std::this_thread::yield();
  });
  while (phase.load() < 1) std::this_thread::yield();
  { pp::scoped_context racer(context{}.with_seed(222)); }
  phase.store(2);
  other.join();
  pp::detail::scopes().assert_on_conflict.store(true);
  EXPECT_GT(pp::detail::scope_conflicts(), before);

  // Nested scopes on one thread are NOT top-level races: no new conflict.
  uint64_t nested_before = pp::detail::scope_conflicts();
  {
    pp::scoped_context outer(context{}.with_seed(1));
    pp::scoped_context inner(context{}.with_seed(2));
  }
  EXPECT_EQ(pp::detail::scope_conflicts(), nested_before);
}

TEST(Context, ParseBackend) {
  EXPECT_EQ(pp::parse_backend("native"), backend_kind::native);
  EXPECT_EQ(pp::parse_backend("openmp"), backend_kind::openmp);
  EXPECT_EQ(pp::parse_backend("omp"), backend_kind::openmp);
  EXPECT_EQ(pp::parse_backend("sequential"), backend_kind::sequential);
  EXPECT_EQ(pp::parse_backend("seq"), backend_kind::sequential);
  EXPECT_FALSE(pp::parse_backend("tbb").has_value());
}

}  // namespace
