// Cross-module integration tests:
//   * every parallel algorithm must return bit-identical results across
//     the two backends (native work-stealing, sequential) — the
//     determinism guarantee of DESIGN.md §4.5;
//   * the dominance engine is exercised directly with degenerate qx/yrank
//     shapes that no single front-end produces.
#include <gtest/gtest.h>

#include <vector>

#include "algos/activity.h"
#include "algos/coloring.h"
#include "algos/huffman.h"
#include "algos/knapsack.h"
#include "algos/lis.h"
#include "algos/list_ranking.h"
#include "algos/matching.h"
#include "algos/mis.h"
#include "algos/random_shuffle.h"
#include "algos/sssp.h"
#include "algos/whac.h"
#include "core/dominance_dp.h"
#include "graph/generators.h"
#include "parallel/random.h"

namespace {

// The library's default execution context; seeded or pivot-specific
// runs derive from it with the with_* builders.
const pp::context kCtx{};

using pp::backend_kind;
const backend_kind kBackends[] = {backend_kind::native, backend_kind::sequential};

TEST(BackendDeterminism, Lis) {
  auto a = pp::lis_line_pattern(30000, 7, 100000, 3);
  const pp::context lis_ctx = kCtx.with_pivot(pp::pivot_policy::uniform_random).with_seed(5);
  auto ref = pp::lis_parallel(a, lis_ctx.with_backend(kBackends[0]));
  for (auto b : kBackends) {
    auto r = pp::lis_parallel(a, lis_ctx.with_backend(b));
    EXPECT_EQ(r.dp, ref.dp) << pp::backend_name(b);
    EXPECT_EQ(r.stats.rounds, ref.stats.rounds) << pp::backend_name(b);
    EXPECT_EQ(r.stats.wakeup_attempts, ref.stats.wakeup_attempts) << pp::backend_name(b);
  }
}

TEST(BackendDeterminism, Activity) {
  auto acts = pp::random_activities(50000, 1'000'000, 500, 100, 50, 7);
  auto ref = pp::activity_select_type1(acts, kCtx.with_backend(kBackends[0]));
  for (auto b : kBackends) {
    auto t1 = pp::activity_select_type1(acts, kCtx.with_backend(b));
    auto t2 = pp::activity_select_type2(acts, kCtx.with_backend(b));
    EXPECT_EQ(t1.dp, ref.dp) << pp::backend_name(b);
    EXPECT_EQ(t2.dp, ref.dp) << pp::backend_name(b);
  }
}

TEST(BackendDeterminism, Sssp) {
  auto g = pp::rmat_graph(1 << 12, 1 << 15, 1);
  auto wg = pp::add_weights(g, 100, 10000, 2);
  auto ref = pp::sssp_phase_parallel(wg, 0, kCtx.with_backend(kBackends[0]));
  for (auto b : kBackends) {
    const pp::context ctx = kCtx.with_backend(b);
    auto r = pp::sssp_phase_parallel(wg, 0, ctx);
    EXPECT_EQ(r.dist, ref.dist) << pp::backend_name(b);
    auto c = pp::sssp_crauser(wg, 0, /*use_in_criterion=*/true, ctx);
    EXPECT_EQ(c.dist, ref.dist) << pp::backend_name(b);
  }
}

TEST(BackendDeterminism, GraphGreedy) {
  auto g = pp::random_graph(20000, 80000, 3);
  auto prio = pp::random_permutation(g.num_vertices(), 4);
  auto eprio = pp::random_permutation(g.num_edges(), 5);
  auto mis_ref = pp::mis_tas(g, prio, kCtx.with_backend(kBackends[0]));
  for (auto b : kBackends) {
    const pp::context ctx = kCtx.with_backend(b);
    EXPECT_EQ(pp::mis_tas(g, prio, ctx).in_mis, mis_ref.in_mis);
    EXPECT_EQ(pp::coloring_tas(g, prio, ctx).color, pp::coloring_sequential(g, prio, kCtx).color);
    EXPECT_EQ(pp::matching_rounds(g, eprio, ctx).partner,
              pp::matching_sequential(g, eprio, kCtx).partner);
  }
}

TEST(BackendDeterminism, HuffmanKnapsackShuffleListWhac) {
  auto freqs = pp::uniform_freqs(100000, 1000, 1);
  auto items = pp::random_items(20, 10, 60, 100, 2);
  auto targets = pp::knuth_targets(50000, 3);
  auto next = pp::random_list(50000, 4);
  auto moles = pp::random_moles(20000, 100000, 1000, 5);
  const pp::context ref_ctx = kCtx.with_backend(kBackends[0]);
  auto h_ref = pp::huffman_parallel(freqs, ref_ctx);
  auto k_ref = pp::knapsack_parallel(5000, items, ref_ctx);
  auto s_ref = pp::knuth_shuffle_parallel(50000, targets, ref_ctx);
  auto l_ref = pp::list_ranking_parallel(next, ref_ctx.with_seed(9));
  auto w_ref =
      pp::whac_parallel(moles, ref_ctx.with_pivot(pp::pivot_policy::rightmost).with_seed(1));
  for (auto b : kBackends) {
    const pp::context ctx = kCtx.with_backend(b);
    EXPECT_EQ(pp::huffman_parallel(freqs, ctx).wpl, h_ref.wpl);
    EXPECT_EQ(pp::knapsack_parallel(5000, items, ctx).dp, k_ref.dp);
    EXPECT_EQ(pp::knuth_shuffle_parallel(50000, targets, ctx).perm, s_ref.perm);
    EXPECT_EQ(pp::list_ranking_parallel(next, ctx.with_seed(9)).rank, l_ref.rank);
    EXPECT_EQ(pp::whac_parallel(moles, ctx.with_pivot(pp::pivot_policy::rightmost).with_seed(1)).dp,
              w_ref.dp);
  }
}

// --- dominance engine, degenerate shapes ---------------------------------------

TEST(DominanceEngine, QxZeroMeansEverythingIsRankOne) {
  // empty dominated sets: every object finishes in round 1 with dp 1
  size_t n = 1000;
  auto yr = pp::random_permutation(n, 1);
  std::vector<uint32_t> qx(n, 0);
  auto res =
      pp::dominance_dp(yr, qx, {}, kCtx.with_pivot(pp::pivot_policy::uniform_random).with_seed(2));
  EXPECT_EQ(res.stats.rounds, 1u);
  for (auto d : res.dp) EXPECT_EQ(d, 1);
}

TEST(DominanceEngine, FullPrefixEqualsLis) {
  size_t n = 5000;
  std::vector<int64_t> a(n);
  for (size_t i = 0; i < n; ++i) a[i] = static_cast<int64_t>(pp::hash64(i) % 100);
  auto yr = pp::compute_y_ranks(std::span<const int64_t>(a));
  auto qx = pp::tabulate<uint32_t>(n, [](size_t i) { return static_cast<uint32_t>(i); });
  auto eng =
      pp::dominance_dp(yr, qx, {}, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(3));
  auto lis = pp::lis_sequential(a, kCtx);
  EXPECT_EQ(eng.dp, lis.dp);
}

TEST(DominanceEngine, ChainYRanksGiveFullDepth) {
  // yrank == index and full prefixes: a total chain, dp[i] = i + 1
  size_t n = 300;
  auto yr = pp::tabulate<uint32_t>(n, [](size_t i) { return static_cast<uint32_t>(i); });
  auto qx = yr;
  auto res =
      pp::dominance_dp(yr, qx, {}, kCtx.with_pivot(pp::pivot_policy::uniform_random).with_seed(4));
  EXPECT_EQ(res.stats.rounds, n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(res.dp[i], static_cast<int32_t>(i + 1));
}

TEST(DominanceEngine, WeightsRespected) {
  size_t n = 100;
  auto yr = pp::tabulate<uint32_t>(n, [](size_t i) { return static_cast<uint32_t>(i); });
  auto qx = yr;
  auto w = pp::tabulate<int32_t>(n, [](size_t) { return 5; });
  auto res = pp::dominance_dp(yr, qx, w, kCtx.with_pivot(pp::pivot_policy::rightmost).with_seed(5));
  EXPECT_EQ(res.best, static_cast<int64_t>(5 * n));
}

TEST(DominanceEngine, PartialPrefixesRespectTies) {
  // two tie-groups: {0,1} then {2,3}; group members must not see each other
  std::vector<uint32_t> yr = {0, 1, 2, 3};
  std::vector<uint32_t> qx = {0, 0, 2, 2};
  auto res =
      pp::dominance_dp(yr, qx, {}, kCtx.with_pivot(pp::pivot_policy::uniform_random).with_seed(6));
  EXPECT_EQ(res.dp, (std::vector<int32_t>{1, 1, 2, 2}));
  EXPECT_EQ(res.stats.rounds, 2u);
}

}  // namespace
