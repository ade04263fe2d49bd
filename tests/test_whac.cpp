// Tests for the Whac-A-Mole dominance DP (Appendix B).
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "algos/whac.h"

namespace {

// The library's default execution context; seeded or pivot-specific
// runs derive from it with the with_* builders.
const pp::context kCtx{};

class WhacRandom : public ::testing::TestWithParam<std::tuple<size_t, int64_t, int64_t, uint64_t>> {};

TEST_P(WhacRandom, SequentialMatchesBrute) {
  auto [n, t_range, p_range, seed] = GetParam();
  auto moles = pp::random_moles(n, t_range, p_range, seed);
  auto brute = pp::whac_bruteforce(moles);
  auto seq = pp::whac_sequential(moles, kCtx);
  EXPECT_EQ(seq.dp, brute.dp);
  EXPECT_EQ(seq.best, brute.best);
}

TEST_P(WhacRandom, ParallelMatchesSequential) {
  auto [n, t_range, p_range, seed] = GetParam();
  auto moles = pp::random_moles(n, t_range, p_range, seed);
  auto seq = pp::whac_sequential(moles, kCtx);
  for (auto policy : {pp::pivot_policy::uniform_random, pp::pivot_policy::rightmost}) {
    auto par = pp::whac_parallel(moles, kCtx.with_pivot(policy).with_seed(seed + 3));
    EXPECT_EQ(par.dp, seq.dp);
    EXPECT_EQ(par.best, seq.best);
  }
}

TEST_P(WhacRandom, RoundsEqualBest) {
  auto [n, t_range, p_range, seed] = GetParam();
  if (n == 0) return;
  auto moles = pp::random_moles(n, t_range, p_range, seed);
  auto par = pp::whac_parallel(moles, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(1));
  EXPECT_EQ(par.stats.rounds, static_cast<size_t>(par.best));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WhacRandom,
    ::testing::Values(std::tuple{size_t{0}, int64_t{10}, int64_t{10}, 1ul},
                      std::tuple{size_t{1}, int64_t{10}, int64_t{10}, 2ul},
                      std::tuple{size_t{50}, int64_t{100}, int64_t{100}, 3ul},
                      std::tuple{size_t{200}, int64_t{1000}, int64_t{10}, 4ul},  // narrow board
                      std::tuple{size_t{500}, int64_t{50}, int64_t{500}, 5ul},   // tie-heavy times
                      std::tuple{size_t{800}, int64_t{4000}, int64_t{4000}, 6ul}));

TEST(Whac, HandExample) {
  // Moles: (t=0,p=0), (t=2,p=1), (t=3,p=5). 0 -> 1 reachable (|1-0|<=2).
  // 1 -> 2 not reachable (|5-1|=4 > 1); 0 -> 2 reachable (5 <= 3? no, |5-0|=5 > 3).
  // Strict-dominance check: best chain = {0,1} = 2.
  std::vector<pp::mole> moles = {{0, 0}, {2, 1}, {3, 5}};
  auto seq = pp::whac_sequential(moles, kCtx);
  EXPECT_EQ(seq.best, 2);
  auto par = pp::whac_parallel(moles, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(1));
  EXPECT_EQ(par.best, 2);
}

TEST(Whac, StationaryHammerChain) {
  // All moles at the same position, increasing times: all hittable.
  std::vector<pp::mole> moles;
  for (int i = 0; i < 20; ++i) moles.push_back({2 * i, 7});
  auto par = pp::whac_parallel(moles, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(1));
  EXPECT_EQ(par.best, 20);
}

TEST(Whac, SimultaneousMolesOnlyOneHit) {
  // Same time, different positions: pairwise incompatible.
  std::vector<pp::mole> moles = {{5, 0}, {5, 10}, {5, 20}, {5, 30}};
  auto seq = pp::whac_sequential(moles, kCtx);
  EXPECT_EQ(seq.best, 1);
  auto par = pp::whac_parallel(moles, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(1));
  EXPECT_EQ(par.best, 1);
}

TEST(Whac, ExactBoundaryIsExcluded) {
  // |p2-p1| == t2-t1 exactly: the paper's transform uses strict <, so the
  // pair is incompatible.
  std::vector<pp::mole> moles = {{0, 0}, {4, 4}};
  EXPECT_EQ(pp::whac_sequential(moles, kCtx).best, 1);
  EXPECT_EQ(
      pp::whac_parallel(moles, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(1)).best, 1);
  // one step inside the cone: compatible
  std::vector<pp::mole> ok = {{0, 0}, {4, 3}};
  EXPECT_EQ(pp::whac_sequential(ok, kCtx).best, 2);
  EXPECT_EQ(pp::whac_parallel(ok, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(1)).best,
            2);
}

}  // namespace
