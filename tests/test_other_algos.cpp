// Tests for the Sec. 5.3 "other algorithms": parallel Knuth shuffle,
// list ranking by contraction, and the Crauser-criterion SSSP.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include "algos/list_ranking.h"
#include "algos/random_shuffle.h"
#include "algos/sssp.h"
#include "graph/generators.h"
#include "parallel/random.h"

namespace {

// The library's default execution context; seeded or pivot-specific
// runs derive from it with the with_* builders.
const pp::context kCtx{};

// --- Knuth shuffle ----------------------------------------------------------

class ShuffleSweep : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(ShuffleSweep, ParallelEqualsSequentialShuffle) {
  auto [n, seed] = GetParam();
  auto targets = pp::knuth_targets(n, seed);
  auto seq = pp::knuth_shuffle_seq(n, targets, kCtx);
  auto par = pp::knuth_shuffle_parallel(n, targets, kCtx);
  EXPECT_EQ(par.perm, seq.perm);
}

TEST_P(ShuffleSweep, OutputIsAPermutation) {
  auto [n, seed] = GetParam();
  auto targets = pp::knuth_targets(n, seed);
  auto par = pp::knuth_shuffle_parallel(n, targets, kCtx);
  std::vector<bool> seen(n, false);
  ASSERT_EQ(par.perm.size(), n);
  for (auto v : par.perm) {
    ASSERT_LT(v, n);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST_P(ShuffleSweep, RoundsLogarithmicWhp) {
  auto [n, seed] = GetParam();
  if (n < 16) return;
  auto targets = pp::knuth_targets(n, seed);
  auto par = pp::knuth_shuffle_parallel(n, targets, kCtx);
  double logn = std::log2(static_cast<double>(n));
  // dependence forest depth is O(log n) whp [SGBFG15]
  EXPECT_LE(par.stats.rounds, static_cast<size_t>(8 * logn + 8));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShuffleSweep,
                         ::testing::Combine(::testing::Values(size_t{0}, size_t{1}, size_t{2},
                                                              size_t{100}, size_t{10000},
                                                              size_t{100000}),
                                            ::testing::Values(1ul, 2ul, 3ul)));

TEST(Shuffle, TargetsInRange) {
  auto t = pp::knuth_targets(1000, 5);
  for (size_t i = 1; i < t.size(); ++i) ASSERT_LE(t[i], i);
}

TEST(Shuffle, UniformityOverSmallPermutations) {
  // All 6 permutations of 3 elements should appear with similar frequency
  // across seeds.
  std::map<std::vector<uint32_t>, int> hist;
  constexpr int trials = 6000;
  for (int s = 0; s < trials; ++s) {
    auto t = pp::knuth_targets(3, 1000 + s);
    hist[pp::knuth_shuffle_parallel(3, t, kCtx).perm]++;
  }
  ASSERT_EQ(hist.size(), 6u);
  for (auto& [perm, cnt] : hist) EXPECT_NEAR(cnt, trials / 6, trials / 6 * 0.35);
}

// --- list ranking -------------------------------------------------------------

class ListRankSweep : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(ListRankSweep, ParallelEqualsSequential) {
  auto [n, seed] = GetParam();
  auto next = pp::random_list(n, seed);
  auto seq = pp::list_ranking_seq(next, kCtx);
  auto par = pp::list_ranking_parallel(next, kCtx.with_seed(seed + 9));
  EXPECT_EQ(par.rank, seq.rank);
}

TEST_P(ListRankSweep, ContractionRoundsLogarithmic) {
  auto [n, seed] = GetParam();
  if (n < 16) return;
  auto next = pp::random_list(n, seed);
  auto par = pp::list_ranking_parallel(next, kCtx.with_seed(seed));
  double logn = std::log2(static_cast<double>(n));
  EXPECT_LE(par.stats.rounds, static_cast<size_t>(6 * logn + 8));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ListRankSweep,
                         ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                                              size_t{64}, size_t{10000},
                                                              size_t{200000}),
                                            ::testing::Values(1ul, 2ul, 3ul)));

TEST(ListRankWeighted, MatchesSequentialWithNegativeWeights) {
  for (uint64_t seed : {1, 2, 3}) {
    constexpr size_t n = 30000;
    auto next = pp::random_list(n, seed);
    auto w = pp::tabulate<int64_t>(n, [&](size_t i) {
      return static_cast<int64_t>(pp::hash64(seed * n + i) % 21) - 10;  // in [-10, 10]
    });
    auto seq = pp::list_ranking_weighted_seq(next, w, kCtx);
    auto par = pp::list_ranking_weighted_parallel(next, w, kCtx.with_seed(seed + 5));
    EXPECT_EQ(par.rank, seq.rank);
  }
}

TEST(ForestDepths, MatchesBfsOnRandomForests) {
  std::mt19937_64 gen(7);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 1 + gen() % 3000;
    // random forest: parent of v is a smaller id (or none)
    std::vector<uint32_t> parent(n);
    for (size_t v = 0; v < n; ++v) {
      bool root = v == 0 || gen() % 10 == 0;
      parent[v] = root ? pp::kListEnd : static_cast<uint32_t>(gen() % v);
    }
    auto got = pp::forest_depths_euler(parent, kCtx.with_seed(trial));
    // reference depths
    std::vector<int64_t> expect(n);
    for (size_t v = 0; v < n; ++v)
      expect[v] = parent[v] == pp::kListEnd ? 1 : expect[parent[v]] + 1;
    ASSERT_EQ(got.rank, expect) << "trial " << trial << " n=" << n;
  }
}

TEST(ForestDepths, SingleChainAndStar) {
  // chain: parent[v] = v - 1
  std::vector<uint32_t> chain(100);
  for (size_t v = 0; v < 100; ++v) chain[v] = v == 0 ? pp::kListEnd : static_cast<uint32_t>(v - 1);
  auto d = pp::forest_depths_euler(chain, kCtx.with_seed(1));
  for (size_t v = 0; v < 100; ++v) ASSERT_EQ(d.rank[v], static_cast<int64_t>(v + 1));
  // star: all children of node 0
  std::vector<uint32_t> star(500, 0);
  star[0] = pp::kListEnd;
  d = pp::forest_depths_euler(star, kCtx.with_seed(1));
  EXPECT_EQ(d.rank[0], 1);
  for (size_t v = 1; v < 500; ++v) ASSERT_EQ(d.rank[v], 2);
}

TEST(ListRank, IdentityChain) {
  // next[i] = i+1: rank[i] == i.
  constexpr size_t n = 1000;
  std::vector<uint32_t> next(n);
  for (size_t i = 0; i < n; ++i) next[i] = i + 1 < n ? static_cast<uint32_t>(i + 1) : pp::kListEnd;
  auto par = pp::list_ranking_parallel(next, kCtx.with_seed(3));
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(par.rank[i], i);
}

// --- Crauser-criterion SSSP -----------------------------------------------------

class CrauserSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrauserSweep, MatchesDijkstraOnAllFamilies) {
  uint64_t seed = GetParam();
  for (auto g : {pp::random_graph(1500, 8000, seed), pp::rmat_graph(1 << 10, 1 << 12, seed),
                 pp::grid_graph(25, 30)}) {
    auto wg = pp::add_weights(g, 5, 500, seed + 1);
    auto dj = pp::sssp_dijkstra(wg, 0, kCtx);
    auto out_only = pp::sssp_crauser(wg, 0, /*use_in_criterion=*/false, kCtx);
    auto in_out = pp::sssp_crauser(wg, 0, /*use_in_criterion=*/true, kCtx);
    ASSERT_EQ(out_only.dist, dj.dist);
    ASSERT_EQ(in_out.dist, dj.dist);
    // adding the IN criterion can only settle more per round
    EXPECT_LE(in_out.stats.rounds, out_only.stats.rounds);
  }
}

TEST_P(CrauserSweep, FewerRoundsThanDijkstraSettles) {
  uint64_t seed = GetParam();
  auto g = pp::random_graph(4000, 30000, seed);
  auto wg = pp::add_weights(g, 5, 50, seed + 1);
  auto cr = pp::sssp_crauser(wg, 0, /*use_in_criterion=*/true, kCtx);
  // multi-vertex rounds: far fewer rounds than vertices
  EXPECT_LT(cr.stats.rounds, static_cast<size_t>(wg.num_vertices()) / 2);
  EXPECT_GT(cr.stats.max_frontier, 1u);
}

TEST_P(CrauserSweep, WorkEfficientRelaxations) {
  uint64_t seed = GetParam();
  auto g = pp::random_graph(3000, 20000, seed);
  auto wg = pp::add_weights(g, 5, 500, seed + 2);
  auto cr = pp::sssp_crauser(wg, 0, /*use_in_criterion=*/true, kCtx);
  // every settled vertex relaxes its out-edges exactly once
  EXPECT_LE(cr.stats.relaxations, wg.num_edges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrauserSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
