// Tests for unlimited knapsack: parallel windows vs sequential DP.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "algos/knapsack.h"

namespace {

// Every solver call below runs under the library's default context.
const pp::context kCtx{};

class KnapsackRandom
    : public ::testing::TestWithParam<std::tuple<size_t, int64_t, int64_t, uint64_t>> {};

TEST_P(KnapsackRandom, ParallelMatchesSequential) {
  auto [n, W, w_min, seed] = GetParam();
  auto items = pp::random_items(n, w_min, std::max<int64_t>(w_min * 4, w_min + 1), 1000, seed);
  auto seq = pp::knapsack_seq(W, items, kCtx);
  auto par = pp::knapsack_parallel(W, items, kCtx);
  EXPECT_EQ(par.dp, seq.dp);
  EXPECT_EQ(par.best, seq.best);
}

TEST_P(KnapsackRandom, RoundsEqualRelaxedRank) {
  auto [n, W, w_min, seed] = GetParam();
  auto items = pp::random_items(n, w_min, std::max<int64_t>(w_min * 4, w_min + 1), 1000, seed);
  auto par = pp::knapsack_parallel(W, items, kCtx);
  int64_t wstar = items[0].weight;
  for (auto& it : items) wstar = std::min(wstar, it.weight);
  // rank(W) = W / w* windows (Theorem 4.3), +1 for the dp[0] window
  EXPECT_EQ(par.stats.rounds, static_cast<size_t>(W / wstar) + 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KnapsackRandom,
                         ::testing::Values(std::tuple{size_t{1}, int64_t{50}, int64_t{3}, 1ul},
                                           std::tuple{size_t{5}, int64_t{100}, int64_t{2}, 2ul},
                                           std::tuple{size_t{10}, int64_t{500}, int64_t{7}, 3ul},
                                           std::tuple{size_t{20}, int64_t{2000}, int64_t{25}, 4ul},
                                           std::tuple{size_t{50}, int64_t{1000}, int64_t{1}, 5ul}));

TEST(Knapsack, HandValues) {
  // items: weight 3 value 5, weight 5 value 9 — W=11: 9+5+5? no:
  // 3+3+3=9w -> 15v; 5+5=10w -> 18v; 5+3+3=11w -> 19v.
  std::vector<pp::knapsack_item> items = {{3, 5}, {5, 9}};
  auto seq = pp::knapsack_seq(11, items, kCtx);
  EXPECT_EQ(seq.best, 19);
  auto par = pp::knapsack_parallel(11, items, kCtx);
  EXPECT_EQ(par.best, 19);
}

TEST(Knapsack, ZeroCapacityAndNoItems) {
  std::vector<pp::knapsack_item> items = {{2, 3}};
  EXPECT_EQ(pp::knapsack_parallel(0, items, kCtx).best, 0);
  std::vector<pp::knapsack_item> none;
  EXPECT_EQ(pp::knapsack_parallel(100, none, kCtx).best, 0);
  EXPECT_EQ(pp::knapsack_seq(100, none, kCtx).best, 0);
}

TEST(Knapsack, ItemHeavierThanCapacity) {
  std::vector<pp::knapsack_item> items = {{50, 100}, {3, 1}};
  auto par = pp::knapsack_parallel(10, items, kCtx);
  EXPECT_EQ(par.best, 3);  // three of the small item
}

}  // namespace
