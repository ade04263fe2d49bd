// Direct unit tests for src/core: Fenwick prefix-max trees (plain and
// atomic/concurrent) and phase statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/fenwick.h"
#include "core/stats.h"
#include "parallel/random.h"

namespace {

TEST(FenwickMax, MatchesBruteForce) {
  constexpr size_t n = 2000;
  pp::fenwick_max<int64_t> fw(n, -1);
  std::vector<int64_t> ref(n, -1);
  std::mt19937_64 gen(1);
  for (int ops = 0; ops < 20000; ++ops) {
    size_t p = gen() % n;
    int64_t v = static_cast<int64_t>(gen() % 100000);
    fw.raise(p, v);
    ref[p] = std::max(ref[p], v);
    if (ops % 10 == 0) {
      size_t k = gen() % (n + 1);
      int64_t expect = -1;
      for (size_t i = 0; i < k; ++i) expect = std::max(expect, ref[i]);
      ASSERT_EQ(fw.prefix_max(k), expect) << "k=" << k;
    }
  }
}

TEST(FenwickMax, RaiseNeverLowers) {
  pp::fenwick_max<int64_t> fw(100, 0);
  fw.raise(50, 10);
  fw.raise(50, 5);  // lower value: no effect
  EXPECT_EQ(fw.prefix_max(51), 10);
  EXPECT_EQ(fw.prefix_max(50), 0);  // position 50 excluded from [0,50)
}

TEST(FenwickMax, EmptyAndBounds) {
  pp::fenwick_max<int64_t> fw(0, -7);
  EXPECT_EQ(fw.prefix_max(0), -7);
  pp::fenwick_max<int64_t> fw1(1, 0);
  fw1.raise(0, 42);
  EXPECT_EQ(fw1.prefix_max(1), 42);
}

TEST(AtomicFenwickMax, ConcurrentRaisesConverge) {
  constexpr size_t n = 10000;
  pp::atomic_fenwick_max<int64_t> fw(n);
  // all raises in parallel, then verify against brute force
  std::vector<int64_t> vals(n);
  for (size_t i = 0; i < n; ++i) vals[i] = static_cast<int64_t>(pp::hash64(i) % 1000000);
  pp::parallel_for(0, n, [&](size_t i) { fw.raise(i, vals[i]); }, 16);
  int64_t run = 0;
  for (size_t k = 0; k <= n; k += 97) {
    int64_t expect = 0;
    for (size_t i = 0; i < k; ++i) expect = std::max(expect, vals[i]);
    ASSERT_EQ(fw.prefix_max(k), expect);
    (void)run;
  }
}

TEST(AtomicFenwickMax, RepeatedConcurrentRaisesSamePosition) {
  pp::atomic_fenwick_max<int64_t> fw(64);
  pp::parallel_for(0, 10000, [&](size_t i) { fw.raise(i % 64, static_cast<int64_t>(i)); }, 8);
  EXPECT_EQ(fw.prefix_max(64), 9999);
}

TEST(PhaseStats, AvgWakeups) {
  pp::phase_stats s;
  EXPECT_EQ(s.avg_wakeups(), 0.0);
  s.record_frontier(10);
  s.wakeup_attempts = 25;
  EXPECT_DOUBLE_EQ(s.avg_wakeups(), 2.5);
}

}  // namespace
