// Tests for weighted activity selection: all four implementations must
// agree with each other and with an O(n^2) brute force; rounds must track
// the input rank.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "algos/activity.h"
#include "algos/activity_unweighted.h"

namespace {

// Every solver call below runs under the library's default context.
const pp::context kCtx{};

using pp::activity;

// O(n^2) reference of Eq. (1): dp[i] = w_i + max(0, max_{j<i, e_j<=s_i} dp[j]).
std::vector<int64_t> brute_dp(std::span<const activity> acts) {
  std::vector<int64_t> dp(acts.size());
  for (size_t i = 0; i < acts.size(); ++i) {
    int64_t b = 0;
    for (size_t j = 0; j < i; ++j)
      if (acts[j].end <= acts[i].start) b = std::max(b, dp[j]);
    dp[i] = acts[i].weight + b;
  }
  return dp;
}

std::vector<activity> small_random(size_t n, int64_t t_range, int64_t max_len, uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::vector<activity> acts(n);
  for (auto& a : acts) {
    a.start = static_cast<int64_t>(gen() % t_range);
    a.end = a.start + 1 + static_cast<int64_t>(gen() % max_len);
    a.weight = 1 + static_cast<int64_t>(gen() % 100);
  }
  pp::sort_activities(acts);
  return acts;
}

class ActivityRandom : public ::testing::TestWithParam<std::tuple<size_t, int64_t, uint64_t>> {};

TEST_P(ActivityRandom, AllImplementationsMatchBrute) {
  auto [n, t_range, seed] = GetParam();
  auto acts = small_random(n, t_range, std::max<int64_t>(t_range / 4, 2), seed);
  auto expect = brute_dp(acts);
  int64_t best = 0;
  for (auto v : expect) best = std::max(best, v);

  auto seq = pp::activity_select_seq(acts, kCtx);
  auto t1 = pp::activity_select_type1(acts, kCtx);
  auto t1f = pp::activity_select_type1_flat(acts, kCtx);
  auto t2 = pp::activity_select_type2(acts, kCtx);

  EXPECT_EQ(seq.dp, expect);
  EXPECT_EQ(t1.dp, expect);
  EXPECT_EQ(t1f.dp, expect);
  EXPECT_EQ(t2.dp, expect);
  EXPECT_EQ(seq.best, best);
  EXPECT_EQ(t1.best, best);
  EXPECT_EQ(t1f.best, best);
  EXPECT_EQ(t2.best, best);
}

TEST_P(ActivityRandom, ParallelVariantsAgreeOnRounds) {
  auto [n, t_range, seed] = GetParam();
  auto acts = small_random(n, t_range, std::max<int64_t>(t_range / 4, 2), seed);
  auto t1 = pp::activity_select_type1(acts, kCtx);
  auto t1f = pp::activity_select_type1_flat(acts, kCtx);
  auto t2 = pp::activity_select_type2(acts, kCtx);
  // All three process frontier r = the rank-r activities: same round count.
  EXPECT_EQ(t1.stats.rounds, t1f.stats.rounds);
  EXPECT_EQ(t1.stats.rounds, t2.stats.rounds);
  EXPECT_EQ(t1.stats.processed, acts.size());
  EXPECT_EQ(t2.stats.processed, acts.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ActivityRandom,
                         ::testing::Values(std::tuple{size_t{0}, int64_t{10}, uint64_t{1}},
                                           std::tuple{size_t{1}, int64_t{10}, uint64_t{2}},
                                           std::tuple{size_t{2}, int64_t{10}, uint64_t{3}},
                                           std::tuple{size_t{50}, int64_t{20}, uint64_t{4}},
                                           std::tuple{size_t{200}, int64_t{1000}, uint64_t{5}},
                                           std::tuple{size_t{500}, int64_t{50}, uint64_t{6}},
                                           std::tuple{size_t{1000}, int64_t{10000}, uint64_t{7}},
                                           std::tuple{size_t{1000}, int64_t{30}, uint64_t{8}}));

TEST(Activity, DisjointChainHasRankN) {
  // n back-to-back activities: rank = n, dp strictly increasing.
  std::vector<activity> acts;
  for (int i = 0; i < 64; ++i) acts.push_back({2 * i, 2 * i + 1, 1});
  pp::sort_activities(acts);
  auto t1 = pp::activity_select_type1(acts, kCtx);
  EXPECT_EQ(t1.stats.rounds, 64u);
  EXPECT_EQ(t1.best, 64);
  auto t2 = pp::activity_select_type2(acts, kCtx);
  EXPECT_EQ(t2.stats.rounds, 64u);
}

TEST(Activity, AllOverlappingIsOneRound) {
  // n copies of the same interval: every activity has rank 1.
  std::vector<activity> acts(100, activity{0, 10, 5});
  pp::sort_activities(acts);
  auto t1 = pp::activity_select_type1(acts, kCtx);
  EXPECT_EQ(t1.stats.rounds, 1u);
  EXPECT_EQ(t1.best, 5);
  auto t2 = pp::activity_select_type2(acts, kCtx);
  EXPECT_EQ(t2.stats.rounds, 1u);
  EXPECT_EQ(t2.best, 5);
}

TEST(Activity, TouchingEndpointsAreCompatible) {
  // [0,5] and [5,9]: e_1 <= s_2, so they chain.
  std::vector<activity> acts = {{0, 5, 3}, {5, 9, 4}};
  auto seq = pp::activity_select_seq(acts, kCtx);
  EXPECT_EQ(seq.best, 7);
  auto t1 = pp::activity_select_type1(acts, kCtx);
  EXPECT_EQ(t1.best, 7);
  EXPECT_EQ(t1.stats.rounds, 2u);
}

TEST(Activity, GeneratorSortedPositiveDurations) {
  auto acts = pp::random_activities(10000, 100000, 50.0, 20.0, 1000, 9);
  ASSERT_EQ(acts.size(), 10000u);
  for (size_t i = 0; i < acts.size(); ++i) {
    ASSERT_LT(acts[i].start, acts[i].end);
    ASSERT_GE(acts[i].weight, 1);
    ASSERT_LE(acts[i].weight, 1000);
    if (i > 0) ASSERT_LE(acts[i - 1].end, acts[i].end);
  }
}

TEST(Activity, GeneratorRankScalesWithLength) {
  // Longer mean durations => fewer compatible chains => smaller rank.
  auto short_acts = pp::random_activities(20000, 1000000, 10.0, 3.0, 10, 11);
  auto long_acts = pp::random_activities(20000, 1000000, 10000.0, 300.0, 10, 11);
  auto r_short = pp::activity_select_type1_flat(short_acts, kCtx).stats.rounds;
  auto r_long = pp::activity_select_type1_flat(long_acts, kCtx).stats.rounds;
  EXPECT_GT(r_short, r_long);
}

// --- unweighted ------------------------------------------------------------------

class UnweightedActivity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnweightedActivity, ParallelDepthEqualsGreedyCount) {
  auto acts = small_random(300, 200, 30, GetParam());
  auto greedy = pp::activity_unweighted_greedy_seq(acts, kCtx);
  auto par = pp::activity_unweighted_parallel(acts, kCtx);
  auto euler = pp::activity_unweighted_euler(acts, kCtx);
  EXPECT_EQ(par.best, greedy.best);
  EXPECT_EQ(euler.best, greedy.best);
  EXPECT_EQ(euler.rank, par.rank);
  // ranks must match the weighted DP with unit weights
  std::vector<activity> unit(acts.begin(), acts.end());
  for (auto& a : unit) a.weight = 1;
  auto dp = pp::activity_select_seq(unit, kCtx);
  for (size_t i = 0; i < acts.size(); ++i)
    EXPECT_EQ(static_cast<int64_t>(par.rank[i]), dp.dp[i]) << i;
}

TEST_P(UnweightedActivity, LogarithmicJumpRounds) {
  auto acts = small_random(1000, 50, 10, GetParam());
  auto par = pp::activity_unweighted_parallel(acts, kCtx);
  // pointer jumping halves path lengths every round
  EXPECT_LE(par.stats.rounds, 12u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnweightedActivity, ::testing::Values(21, 22, 23, 24, 25));

TEST(UnweightedActivity, EmptyAndSingle) {
  std::vector<activity> none;
  EXPECT_EQ(pp::activity_unweighted_parallel(none, kCtx).best, 0);
  std::vector<activity> one = {{0, 5, 1}};
  EXPECT_EQ(pp::activity_unweighted_parallel(one, kCtx).best, 1);
  EXPECT_EQ(pp::activity_unweighted_greedy_seq(one, kCtx).best, 1);
}

}  // namespace
