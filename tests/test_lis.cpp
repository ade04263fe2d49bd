// Tests for LIS: parallel Algorithm 3 (both pivot policies) against the
// sequential DP and an O(n^2) brute force; wake-up bounds; reconstruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "algos/lis.h"

namespace {

// The library's default execution context; seeded or pivot-specific
// runs derive from it with the with_* builders.
const pp::context kCtx{};

std::vector<int32_t> brute_dp(std::span<const int64_t> a) {
  std::vector<int32_t> dp(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    int32_t b = 0;
    for (size_t j = 0; j < i; ++j)
      if (a[j] < a[i]) b = std::max(b, dp[j]);
    dp[i] = 1 + b;
  }
  return dp;
}

class LisRandom : public ::testing::TestWithParam<std::tuple<size_t, int64_t, uint64_t>> {};

TEST_P(LisRandom, SequentialMatchesBrute) {
  auto [n, range, seed] = GetParam();
  std::mt19937_64 gen(seed);
  std::vector<int64_t> a(n);
  for (auto& x : a) x = static_cast<int64_t>(gen() % range);
  auto expect = brute_dp(a);
  auto seq = pp::lis_sequential(a, kCtx);
  EXPECT_EQ(seq.dp, expect);
}

TEST_P(LisRandom, ParallelMatchesSequentialBothPolicies) {
  auto [n, range, seed] = GetParam();
  std::mt19937_64 gen(seed);
  std::vector<int64_t> a(n);
  for (auto& x : a) x = static_cast<int64_t>(gen() % range);
  auto seq = pp::lis_sequential(a, kCtx);
  for (auto policy : {pp::pivot_policy::uniform_random, pp::pivot_policy::rightmost}) {
    auto par = pp::lis_parallel(a, kCtx.with_pivot(policy).with_seed(seed + 17));
    EXPECT_EQ(par.dp, seq.dp);
    EXPECT_EQ(par.length, seq.length);
    EXPECT_EQ(par.stats.processed, n);
  }
}

TEST_P(LisRandom, RoundsEqualLisLength) {
  auto [n, range, seed] = GetParam();
  if (n == 0) return;
  std::mt19937_64 gen(seed);
  std::vector<int64_t> a(n);
  for (auto& x : a) x = static_cast<int64_t>(gen() % range);
  auto par = pp::lis_parallel(a, kCtx.with_pivot(pp::pivot_policy::uniform_random).with_seed(5));
  // Algorithm 3 processes rank-r objects in round r: rounds == LIS length.
  EXPECT_EQ(par.stats.rounds, static_cast<size_t>(par.length));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LisRandom,
    ::testing::Values(std::tuple{size_t{0}, int64_t{10}, uint64_t{1}},
                      std::tuple{size_t{1}, int64_t{10}, uint64_t{2}},
                      std::tuple{size_t{2}, int64_t{10}, uint64_t{3}},
                      std::tuple{size_t{30}, int64_t{8}, uint64_t{4}},     // many duplicates
                      std::tuple{size_t{100}, int64_t{1000}, uint64_t{5}},
                      std::tuple{size_t{500}, int64_t{20}, uint64_t{6}},   // heavy duplicates
                      std::tuple{size_t{1000}, int64_t{1000000}, uint64_t{7}},
                      std::tuple{size_t{2000}, int64_t{50}, uint64_t{8}}));

TEST(Lis, EdgeCases) {
  // strictly increasing: LIS = n, rounds = n
  std::vector<int64_t> inc = {1, 2, 3, 4, 5, 6, 7, 8};
  auto p = pp::lis_parallel(inc, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(1));
  EXPECT_EQ(p.length, 8);
  EXPECT_EQ(p.stats.rounds, 8u);
  // strictly decreasing: LIS = 1, one round
  std::vector<int64_t> dec = {8, 7, 6, 5, 4, 3, 2, 1};
  p = pp::lis_parallel(dec, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(1));
  EXPECT_EQ(p.length, 1);
  EXPECT_EQ(p.stats.rounds, 1u);
  // all equal: strictly increasing LIS = 1
  std::vector<int64_t> eq(100, 42);
  p = pp::lis_parallel(eq, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(1));
  EXPECT_EQ(p.length, 1);
  EXPECT_EQ(pp::lis_sequential(eq, kCtx).length, 1);
}

TEST(Lis, WakeupsAreLogarithmicWhp) {
  // Lemma 5.5: O(log n) wake-ups per object whp. Check the average is
  // comfortably below a small multiple of log2(n) on an adversarial-ish
  // input (uniform random has deep dominated sets).
  constexpr size_t n = 30000;
  std::mt19937_64 gen(9);
  std::vector<int64_t> a(n);
  for (auto& x : a) x = static_cast<int64_t>(gen());
  for (auto policy : {pp::pivot_policy::uniform_random, pp::pivot_policy::rightmost}) {
    auto p = pp::lis_parallel(a, kCtx.with_pivot(policy).with_seed(3));
    EXPECT_LT(p.stats.avg_wakeups(), 2.0 * std::log2(static_cast<double>(n))) << "policy";
  }
}

TEST(Lis, ReconstructionIsValidOptimalSubsequence) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    std::mt19937_64 gen(seed);
    std::vector<int64_t> a(500);
    for (auto& x : a) x = static_cast<int64_t>(gen() % 300);
    auto par = pp::lis_parallel(a, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(1));
    auto idx = pp::lis_reconstruct(a, par.dp);
    ASSERT_EQ(static_cast<int64_t>(idx.size()), par.length);
    for (size_t k = 1; k < idx.size(); ++k) {
      ASSERT_LT(idx[k - 1], idx[k]);
      ASSERT_LT(a[idx[k - 1]], a[idx[k]]);
    }
  }
}

TEST(Lis, WeightedMatchesSequentialWeighted) {
  for (uint64_t seed : {11, 12, 13}) {
    std::mt19937_64 gen(seed);
    std::vector<int64_t> a(400);
    std::vector<int32_t> w(400);
    for (auto& x : a) x = static_cast<int64_t>(gen() % 100);
    for (auto& x : w) x = 1 + static_cast<int32_t>(gen() % 9);
    auto seq = pp::lis_sequential_weighted(a, w, kCtx);
    auto par = pp::lis_parallel_weighted(
        a, w, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(seed));
    EXPECT_EQ(par.dp, seq.dp);
    EXPECT_EQ(par.length, seq.length);
    // brute check of the weighted recurrence
    std::vector<int64_t> bd(a.size());
    int64_t best = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      int64_t b = 0;
      for (size_t j = 0; j < i; ++j)
        if (a[j] < a[i]) b = std::max(b, bd[j]);
      bd[i] = w[i] + b;
      best = std::max(best, bd[i]);
    }
    EXPECT_EQ(seq.length, best);
  }
}

TEST(Lis, DeterministicPerSeed) {
  std::vector<int64_t> a = pp::lis_line_pattern(5000, 10, 2000, 3);
  auto p1 = pp::lis_parallel(a, kCtx.with_pivot(pp::pivot_policy::uniform_random).with_seed(42));
  auto p2 = pp::lis_parallel(a, kCtx.with_pivot(pp::pivot_policy::uniform_random).with_seed(42));
  EXPECT_EQ(p1.dp, p2.dp);
  EXPECT_EQ(p1.stats.wakeup_attempts, p2.stats.wakeup_attempts);
  EXPECT_EQ(p1.stats.rounds, p2.stats.rounds);
}

TEST(Lis, SegmentPatternHasExpectedRank) {
  for (size_t k : {3ul, 10ul, 30ul}) {
    auto a = pp::lis_segment_pattern(20000, k, 7);
    auto seq = pp::lis_sequential(a, kCtx);
    // the pattern is built so LIS size ~ k (one element per segment)
    EXPECT_GE(seq.length, static_cast<int64_t>(k));
    EXPECT_LE(seq.length, static_cast<int64_t>(2 * k + 2));
  }
}

TEST(Lis, LinePatternRankGrowsWithSlope) {
  auto flat = pp::lis_line_pattern(20000, 1, 100000, 5);
  auto steep = pp::lis_line_pattern(20000, 50, 100000, 5);
  auto r_flat = pp::lis_sequential(flat, kCtx).length;
  auto r_steep = pp::lis_sequential(steep, kCtx).length;
  EXPECT_GT(r_steep, r_flat);
}

}  // namespace
