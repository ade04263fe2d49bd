// Adversarial-input stress tests: structured worst cases that random
// sweeps are unlikely to hit — extreme ranks, tie storms, degenerate
// shapes — for every algorithm family.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algos/activity.h"
#include "algos/huffman.h"
#include "algos/knapsack.h"
#include "algos/lis.h"
#include "algos/mis.h"
#include "algos/sssp.h"
#include "algos/whac.h"
#include "graph/generators.h"
#include "parallel/random.h"
#include "parallel/sort.h"

namespace {

// The library's default execution context; seeded or pivot-specific
// runs derive from it with the with_* builders.
const pp::context kCtx{};

// --- LIS adversarial shapes ------------------------------------------------------

TEST(AdversarialLis, SawtoothBlocks) {
  // k ascending runs of length m each, runs interleaved so every element
  // of run r dominates all of run r-1: rank = m per... construct
  // blocks of m values where block b spans (b*m, b*m+m]; LIS = k*m? Use
  // a shape with known answer: values v(i) = (i % m) * k + (i / m):
  // increasing within each "column" chain, LIS = n / m columns... check
  // against the sequential DP, both policies.
  constexpr size_t k = 32, m = 64, n = k * m;
  std::vector<int64_t> a(n);
  for (size_t i = 0; i < n; ++i) a[i] = static_cast<int64_t>((i % m) * k + i / m);
  auto seq = pp::lis_sequential(a, kCtx);
  for (auto p : {pp::pivot_policy::uniform_random, pp::pivot_policy::rightmost}) {
    auto par = pp::lis_parallel(a, kCtx.with_pivot(p).with_seed(7));
    ASSERT_EQ(par.dp, seq.dp);
  }
}

TEST(AdversarialLis, OrganPipe) {
  // ramp up then down: LIS = up-ramp length
  std::vector<int64_t> a;
  for (int i = 0; i < 500; ++i) a.push_back(i);
  for (int i = 0; i < 500; ++i) a.push_back(499 - i + 1000000);  // shifted down-ramp above ramp
  auto seq = pp::lis_sequential(a, kCtx);
  auto par = pp::lis_parallel(a, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(1));
  EXPECT_EQ(par.length, seq.length);
  EXPECT_EQ(par.length, 501);  // 0..499 then one of the down-ramp
}

TEST(AdversarialLis, TwoValueStorm) {
  // only two distinct values: LIS = 2 (or 1); massive tie pressure on the
  // y-rank tie-breaking
  std::vector<int64_t> a(20000);
  for (size_t i = 0; i < a.size(); ++i) a[i] = (pp::hash64(i) & 1) ? 5 : 9;
  auto seq = pp::lis_sequential(a, kCtx);
  auto par = pp::lis_parallel(a, kCtx.with_pivot(pp::pivot_policy::uniform_random).with_seed(3));
  EXPECT_EQ(par.dp, seq.dp);
  EXPECT_LE(par.length, 2);
  EXPECT_EQ(par.stats.rounds, static_cast<size_t>(par.length));
}

TEST(AdversarialLis, FullChainMaxRank) {
  // strictly increasing input: rank n, one object per round — the span
  // worst case the paper discusses (\"our worst-case span is ~O(n)\")
  auto a = pp::iota<int64_t>(3000);
  auto par = pp::lis_parallel(a, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(1));
  EXPECT_EQ(par.length, 3000);
  EXPECT_EQ(par.stats.rounds, 3000u);
  // round 1 checks all n objects (the virtual-point wake-up); afterwards
  // each object is woken exactly once by its predecessor: 2n - 1 total
  EXPECT_EQ(par.stats.wakeup_attempts, 2u * 3000 - 1);
}

// --- activity selection adversarial shapes ------------------------------------------

TEST(AdversarialActivity, NestedLaminarFamily) {
  // intervals strictly nested: [i, 2n-i); nothing is compatible, rank 1
  constexpr int64_t n = 500;
  std::vector<pp::activity> acts;
  for (int64_t i = 0; i < n; ++i) acts.push_back({i, 2 * n - i, i + 1});
  pp::sort_activities(acts);
  auto t1 = pp::activity_select_type1(acts, kCtx);
  auto t2 = pp::activity_select_type2(acts, kCtx);
  EXPECT_EQ(t1.stats.rounds, 1u);
  EXPECT_EQ(t2.stats.rounds, 1u);
  EXPECT_EQ(t1.best, n);  // the innermost has the largest weight
  EXPECT_EQ(t2.best, n);
}

TEST(AdversarialActivity, StaircaseOfTouchingIntervals) {
  // [0,1),[1,2),... all compatible in one chain: rank n
  constexpr int64_t n = 400;
  std::vector<pp::activity> acts;
  for (int64_t i = 0; i < n; ++i) acts.push_back({i, i + 1, 2});
  auto seq = pp::activity_select_seq(acts, kCtx);
  auto t2 = pp::activity_select_type2(acts, kCtx);
  EXPECT_EQ(t2.dp, seq.dp);
  EXPECT_EQ(t2.best, 2 * n);
  EXPECT_EQ(t2.stats.rounds, static_cast<size_t>(n));
}

TEST(AdversarialActivity, ManyIdenticalEndsOneStart) {
  // heavy end-time ties: every compatible prefix is empty
  std::vector<pp::activity> acts;
  for (int i = 0; i < 1000; ++i) acts.push_back({5, 100, 1 + (i % 7)});
  pp::sort_activities(acts);
  auto seq = pp::activity_select_seq(acts, kCtx);
  auto t1 = pp::activity_select_type1(acts, kCtx);
  EXPECT_EQ(t1.dp, seq.dp);
  EXPECT_EQ(t1.best, 7);
  EXPECT_EQ(t1.stats.rounds, 1u);
}

// --- Huffman adversarial ---------------------------------------------------------

TEST(AdversarialHuffman, PowersOfTwoTieStorm) {
  // frequencies all equal powers of two: maximal tie ambiguity, WPL must
  // still match the heap reference exactly
  std::vector<uint64_t> freqs(1 << 10, 8);
  auto seq = pp::huffman_seq(freqs, kCtx);
  auto par = pp::huffman_parallel(freqs, kCtx);
  EXPECT_EQ(par.wpl, seq.wpl);
  EXPECT_EQ(par.height, 10u);
  auto lens = pp::huffman_code_lengths(par, freqs.size());
  EXPECT_TRUE(pp::kraft_exact(lens));
}

TEST(AdversarialHuffman, OneGiantManyTiny) {
  std::vector<uint64_t> freqs(1000, 1);
  freqs.push_back(1u << 30);
  std::sort(freqs.begin(), freqs.end());
  auto seq = pp::huffman_seq(freqs, kCtx);
  auto par = pp::huffman_parallel(freqs, kCtx);
  EXPECT_EQ(par.wpl, seq.wpl);
  // the giant symbol sits directly under the root
  auto lens = pp::huffman_code_lengths(par, freqs.size());
  EXPECT_EQ(lens.back(), 1u);
  EXPECT_TRUE(pp::kraft_exact(lens));
}

// --- knapsack adversarial ----------------------------------------------------------

TEST(AdversarialKnapsack, AllSameWeight) {
  // rank = W / w exactly; dp is a step function of the best item value
  std::vector<pp::knapsack_item> items = {{10, 3}, {10, 9}, {10, 5}};
  auto seq = pp::knapsack_seq(105, items, kCtx);
  auto par = pp::knapsack_parallel(105, items, kCtx);
  EXPECT_EQ(par.dp, seq.dp);
  EXPECT_EQ(par.best, 90);  // 10 copies of value 9
  EXPECT_EQ(par.stats.rounds, 105u / 10 + 1);
}

TEST(AdversarialKnapsack, CoprimeWeights) {
  // chicken-mcnugget regime: dp dense after the Frobenius number
  std::vector<pp::knapsack_item> items = {{7, 7}, {11, 11}};
  auto seq = pp::knapsack_seq(200, items, kCtx);
  auto par = pp::knapsack_parallel(200, items, kCtx);
  EXPECT_EQ(par.dp, seq.dp);
  EXPECT_EQ(par.dp[6], 0);    // below the lightest item
  EXPECT_EQ(par.dp[13], 11);  // one 11 beats one 7
  EXPECT_EQ(par.dp[59], 58);  // best fit: 2*7 + 4*11 = 58 <= 59
  EXPECT_EQ(par.dp[60], 60);  // exact: 7*7 + 11
}

// --- SSSP adversarial ----------------------------------------------------------------

TEST(AdversarialSssp, LongPathWorstRank) {
  // path graph with min weights: rank = path length; all algorithms agree
  constexpr uint32_t n = 3000;
  std::vector<pp::wgraph::wedge> es;
  for (uint32_t i = 0; i + 1 < n; ++i) {
    es.push_back({i, i + 1, 1});
    es.push_back({i + 1, i, 1});
  }
  auto wg = pp::wgraph::from_edges(n, es);
  auto dj = pp::sssp_dijkstra(wg, 0, kCtx);
  auto pp_sssp = pp::sssp_phase_parallel(wg, 0, kCtx);
  auto cr = pp::sssp_crauser(wg, 0, /*use_in_criterion=*/true, kCtx);
  EXPECT_EQ(pp_sssp.dist, dj.dist);
  EXPECT_EQ(cr.dist, dj.dist);
  // one bucket per distance value 0..n-1: no parallelism on a path
  EXPECT_EQ(pp_sssp.stats.rounds, static_cast<size_t>(n));
}

TEST(AdversarialSssp, TwoTierWeights) {
  // cheap local edges + expensive long-range shortcuts: buckets must
  // interleave light and heavy relaxations correctly
  std::vector<pp::wgraph::wedge> es;
  constexpr uint32_t n = 1000;
  for (uint32_t i = 0; i + 1 < n; ++i) {
    es.push_back({i, i + 1, 2});
    es.push_back({i + 1, i, 2});
  }
  for (uint32_t i = 0; i < n; i += 100) {
    es.push_back({0, i, 50});
    es.push_back({i, 0, 50});
  }
  auto wg = pp::wgraph::from_edges(n, es);
  auto dj = pp::sssp_dijkstra(wg, 0, kCtx);
  for (uint32_t delta : {2u, 50u, 1000u}) {
    auto ds = pp::sssp_delta_stepping(wg, 0, delta, kCtx);
    ASSERT_EQ(ds.dist, dj.dist) << "delta " << delta;
  }
}

// --- Whac adversarial -----------------------------------------------------------------

TEST(AdversarialWhac, AllMolesOnDiagonal) {
  // moles exactly on the reachability cone boundary: nothing chains
  std::vector<pp::mole> moles;
  for (int i = 0; i < 300; ++i) moles.push_back({i, i});
  auto seq = pp::whac_sequential(moles, kCtx);
  auto par = pp::whac_parallel(moles, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(1));
  EXPECT_EQ(par.dp, seq.dp);
  EXPECT_EQ(par.best, 1);
}

TEST(AdversarialWhac, DuplicateMoles) {
  // identical (t, p) pairs: mutually unreachable, heavy tie pressure
  std::vector<pp::mole> moles(500, pp::mole{7, 3});
  moles.push_back({100, 3});
  auto seq = pp::whac_sequential(moles, kCtx);
  auto par =
      pp::whac_parallel(moles, kCtx.with_pivot(pp::pivot_policy::uniform_random).with_seed(5));
  EXPECT_EQ(par.dp, seq.dp);
  EXPECT_EQ(par.best, 2);
}

// --- MIS adversarial --------------------------------------------------------------------

TEST(AdversarialMis, StarWithCenterLast) {
  // center has the worst priority: every leaf joins the MIS, center waits
  // for all of them — a TAS tree with max fan-in
  constexpr uint32_t n = 5000;
  std::vector<pp::edge> es;
  for (uint32_t i = 1; i < n; ++i) es.push_back({0, i});
  auto g = pp::graph::from_edges(n, es);
  std::vector<uint32_t> prio(n);
  prio[0] = n - 1;
  for (uint32_t i = 1; i < n; ++i) prio[i] = i - 1;
  auto seq = pp::mis_sequential(g, prio, kCtx);
  auto tas = pp::mis_tas(g, prio, kCtx);
  EXPECT_EQ(tas.in_mis, seq.in_mis);
  EXPECT_EQ(tas.mis_size, n - 1u);
  EXPECT_FALSE(tas.in_mis[0]);
}

TEST(AdversarialMis, CliqueChain) {
  // chain of K5s sharing one vertex: removal cascades through cliques
  std::vector<pp::edge> es;
  constexpr uint32_t cliques = 100, k = 5;
  for (uint32_t c = 0; c < cliques; ++c) {
    uint32_t base = c * (k - 1);
    for (uint32_t i = 0; i < k; ++i)
      for (uint32_t j = i + 1; j < k; ++j) es.push_back({base + i, base + j});
  }
  uint32_t n = cliques * (k - 1) + 1;
  auto g = pp::graph::from_edges(n, es);
  auto prio = pp::random_permutation(n, 11);
  auto seq = pp::mis_sequential(g, prio, kCtx);
  auto rounds = pp::mis_rounds(g, prio, kCtx);
  auto tas = pp::mis_tas(g, prio, kCtx);
  EXPECT_EQ(rounds.in_mis, seq.in_mis);
  EXPECT_EQ(tas.in_mis, seq.in_mis);
  EXPECT_TRUE(pp::is_maximal_independent_set(g, tas.in_mis));
}

// --- merge primitive ------------------------------------------------------------------

TEST(MergeSorted, StableAndCorrect) {
  std::vector<int> a = {1, 3, 3, 5}, b = {2, 3, 4};
  auto m = pp::merge_sorted(std::span<const int>(a), std::span<const int>(b));
  EXPECT_EQ(m, (std::vector<int>{1, 2, 3, 3, 3, 4, 5}));
  // large merge vs std::merge
  auto xs = pp::tabulate<int64_t>(100000, [](size_t i) { return static_cast<int64_t>(2 * i); });
  auto ys = pp::tabulate<int64_t>(80000, [](size_t i) { return static_cast<int64_t>(3 * i); });
  auto got = pp::merge_sorted(std::span<const int64_t>(xs), std::span<const int64_t>(ys));
  std::vector<int64_t> expect;
  std::merge(xs.begin(), xs.end(), ys.begin(), ys.end(), std::back_inserter(expect));
  EXPECT_EQ(got, expect);
}

}  // namespace
