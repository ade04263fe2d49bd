// Theorem-shaped property tests: the paper's structural results checked on
// random instances (beyond the per-algorithm output equivalence suites).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "algos/activity.h"
#include "algos/huffman.h"
#include "algos/lis.h"
#include "algos/mis.h"
#include "algos/whac.h"
#include "graph/generators.h"
#include "pabst/augmented_map.h"
#include "parallel/random.h"

namespace {

// Every solver call below runs under the library's default context.
const pp::context kCtx{};

// --- Theorem 3.2 / Corollary 3.3: same-rank objects are independent -----------

TEST(PaperTheorems, SameRankLisObjectsAreMutuallyIncomparable) {
  // If rank(x) == rank(y) (same dp), then neither strictly dominates the
  // other — they can run in the same round.
  std::mt19937_64 gen(1);
  std::vector<int64_t> a(1500);
  for (auto& x : a) x = static_cast<int64_t>(gen() % 500);
  auto dp = pp::lis_sequential(a, kCtx).dp;
  for (size_t i = 0; i < a.size(); i += 7) {
    for (size_t j = i + 1; j < std::min(a.size(), i + 150); ++j) {
      if (dp[i] == dp[j]) {
        ASSERT_FALSE(a[i] < a[j] && dp[j] > dp[i]);  // j cannot rely on i
        ASSERT_FALSE(a[i] < a[j]) << "equal-rank later element dominated by earlier";
      }
    }
  }
}

TEST(PaperTheorems, RankIsDepthInDependenceGraph) {
  // Theorem 3.4 for LIS: dp(x) == 1 + max dp over x's predecessors.
  std::mt19937_64 gen(2);
  std::vector<int64_t> a(800);
  for (auto& x : a) x = static_cast<int64_t>(gen() % 200);
  auto dp = pp::lis_sequential(a, kCtx).dp;
  for (size_t i = 0; i < a.size(); ++i) {
    int32_t best = 0;
    for (size_t j = 0; j < i; ++j)
      if (a[j] < a[i]) best = std::max(best, dp[j]);
    ASSERT_EQ(dp[i], best + 1);
  }
}

// --- Lemma 4.1: frontier structure of activity selection -----------------------

TEST(PaperTheorems, ActivityFrontierIsExactlyNextRankLayer) {
  // Simulate Algorithm 2 by layers and check against the DP-derived rank
  // (= dp with unit weights).
  auto acts = pp::random_activities(2000, 5000, 50, 20, 1, 3);
  std::vector<pp::activity> unit(acts.begin(), acts.end());
  for (auto& a : unit) a.weight = 1;
  auto rank = pp::activity_select_seq(unit, kCtx).dp;
  std::vector<bool> finished(acts.size(), false);
  int64_t layer = 0;
  size_t remaining = acts.size();
  while (remaining > 0) {
    ++layer;
    // earliest end among unfinished
    int64_t ex = std::numeric_limits<int64_t>::max();
    for (size_t i = 0; i < acts.size(); ++i)
      if (!finished[i]) ex = std::min(ex, acts[i].end);
    for (size_t i = 0; i < acts.size(); ++i) {
      if (finished[i]) continue;
      bool in_frontier = acts[i].start < ex;
      ASSERT_EQ(in_frontier, rank[i] == layer) << "activity " << i << " layer " << layer;
      if (in_frontier) {
        finished[i] = true;
        --remaining;
      }
    }
  }
}

// --- Lemma 5.1: pivot rank recurrence -------------------------------------------

TEST(PaperTheorems, PivotHasRankExactlyOneLess) {
  auto acts = pp::random_activities(3000, 20000, 200, 80, 1, 4);
  std::vector<pp::activity> unit(acts.begin(), acts.end());
  for (auto& a : unit) a.weight = 1;
  auto rank = pp::activity_select_seq(unit, kCtx).dp;
  for (size_t x = 0; x < acts.size(); ++x) {
    // pivot = latest-starting activity ending before x starts
    int64_t best_start = std::numeric_limits<int64_t>::min();
    size_t pivot = acts.size();
    for (size_t j = 0; j < acts.size(); ++j)
      if (acts[j].end <= acts[x].start && acts[j].start > best_start) {
        best_start = acts[j].start;
        pivot = j;
      }
    if (pivot == acts.size()) {
      ASSERT_EQ(rank[x], 1);
    } else {
      ASSERT_EQ(rank[x], rank[pivot] + 1) << "activity " << x;
    }
  }
}

// --- Fischer-Noever: monotone chains are O(log n) whp ---------------------------

TEST(PaperTheorems, LongestMonotonePriorityPathLogarithmic) {
  for (uint64_t seed : {1, 2, 3}) {
    auto g = pp::random_graph(20000, 100000, seed);
    auto prio = pp::random_permutation(g.num_vertices(), seed + 10);
    // longest path with increasing priorities == #rounds of mis_rounds
    auto rounds = pp::mis_rounds(g, prio, kCtx).stats.rounds;
    double logn = std::log2(20000.0);
    EXPECT_LE(rounds, static_cast<size_t>(4 * logn)) << "seed " << seed;
    EXPECT_GE(rounds, 3u);
  }
}

// --- Huffman optimality & Kraft equality ----------------------------------------

TEST(PaperTheorems, HuffmanCodesAreCompleteAndOptimal) {
  for (uint64_t seed : {5, 6, 7}) {
    auto freqs = pp::uniform_freqs(4000, 10000, seed);
    auto par = pp::huffman_parallel(freqs, kCtx);
    auto lens = pp::huffman_code_lengths(par, freqs.size());
    EXPECT_TRUE(pp::kraft_exact(lens));
    // WPL computed from lengths agrees with the reported WPL
    uint64_t wpl = 0;
    for (size_t i = 0; i < freqs.size(); ++i) wpl += freqs[i] * lens[i];
    EXPECT_EQ(wpl, par.wpl);
    // exchange argument spot-check: rarer symbols never get shorter codes
    for (size_t i = 1; i < freqs.size(); ++i)
      ASSERT_GE(lens[i - 1], lens[i]) << "sorted freqs must have nonincreasing lengths";
  }
}

// --- Whac-A-Mole transform (Eqs. 5-6) --------------------------------------------

TEST(PaperTheorems, WhacDominanceTransformIsExact) {
  std::mt19937_64 gen(8);
  for (int trial = 0; trial < 200; ++trial) {
    pp::mole a{static_cast<int64_t>(gen() % 100), static_cast<int64_t>(gen() % 100)};
    pp::mole b{static_cast<int64_t>(gen() % 100), static_cast<int64_t>(gen() % 100)};
    bool order = a.t < b.t || (a.t == b.t && a.p != b.p);
    if (!order) continue;
    bool reachable = std::llabs(b.p - a.p) < (b.t - a.t);  // strictly inside the cone
    bool dominance = (a.t + a.p < b.t + b.p) && (a.t - a.p < b.t - b.p);
    ASSERT_EQ(reachable, dominance) << a.t << "," << a.p << " -> " << b.t << "," << b.p;
  }
}

// --- PA-BST set operations (Just Join) --------------------------------------------

using MaxEntry = pp::max_val_entry<int64_t, int64_t, std::numeric_limits<int64_t>::min()>;
using MaxMap = pp::augmented_map<MaxEntry>;

MaxMap make_map(const std::set<int64_t>& keys, int64_t val_base) {
  std::vector<MaxMap::entry_t> es;
  for (auto k : keys) es.push_back({k, val_base + k});
  return MaxMap::from_sorted(es);
}

class SetOps : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
 protected:
  void SetUp() override {
    auto [na, nb, seed] = GetParam();
    std::mt19937_64 gen(seed);
    for (size_t i = 0; i < na; ++i) ka_.insert(static_cast<int64_t>(gen() % 5000));
    for (size_t i = 0; i < nb; ++i) kb_.insert(static_cast<int64_t>(gen() % 5000));
  }
  std::set<int64_t> ka_, kb_;
};

TEST_P(SetOps, UnionMatchesStdAndPrefersLeft) {
  auto u = MaxMap::map_union(make_map(ka_, 1000000), make_map(kb_, 2000000));
  std::set<int64_t> expect = ka_;
  expect.insert(kb_.begin(), kb_.end());
  ASSERT_EQ(u.size(), expect.size());
  EXPECT_TRUE(u.check_invariants());
  for (auto k : expect) {
    const int64_t* v = u.find(k);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, (ka_.count(k) ? 1000000 : 2000000) + k);
  }
}

TEST_P(SetOps, IntersectionMatchesStd) {
  auto m = MaxMap::map_intersection(make_map(ka_, 0), make_map(kb_, 0));
  std::vector<int64_t> expect;
  std::set_intersection(ka_.begin(), ka_.end(), kb_.begin(), kb_.end(),
                        std::back_inserter(expect));
  ASSERT_EQ(m.size(), expect.size());
  EXPECT_TRUE(m.check_invariants());
  for (auto k : expect) EXPECT_TRUE(m.contains(k));
}

TEST_P(SetOps, DifferenceMatchesStd) {
  auto m = MaxMap::map_difference(make_map(ka_, 0), make_map(kb_, 0));
  std::vector<int64_t> expect;
  std::set_difference(ka_.begin(), ka_.end(), kb_.begin(), kb_.end(),
                      std::back_inserter(expect));
  ASSERT_EQ(m.size(), expect.size());
  EXPECT_TRUE(m.check_invariants());
  for (auto k : expect) EXPECT_TRUE(m.contains(k));
  for (auto k : kb_) EXPECT_FALSE(m.contains(k));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SetOps,
                         ::testing::Values(std::tuple{size_t{0}, size_t{100}, 1ul},
                                           std::tuple{size_t{100}, size_t{0}, 2ul},
                                           std::tuple{size_t{50}, size_t{50}, 3ul},
                                           std::tuple{size_t{2000}, size_t{2000}, 4ul},
                                           std::tuple{size_t{3000}, size_t{10}, 5ul},
                                           std::tuple{size_t{10}, size_t{3000}, 6ul}));

TEST(SetOps, UnionAugmentationCorrect) {
  std::set<int64_t> ka = {1, 3, 5}, kb = {2, 3, 8};
  auto u = MaxMap::map_union(make_map(ka, 100), make_map(kb, 0));
  // values: 101,2,103,105,8 -> max 105
  EXPECT_EQ(u.aug_all(), 105);
  EXPECT_EQ(u.aug_le(3), 103);
}

}  // namespace
