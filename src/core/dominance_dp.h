// The Type-2 wake-up engine for dominance dynamic programs — the paper's
// Algorithm 3, generalized so that both LIS (Sec. 5.2) and Whac-A-Mole
// (Appendix B) are instances of it.
//
// Problem shape: objects 0..n-1 in sequential order; object i depends on
// exactly the objects in its *dominated set*
//     P(i) = { j : j < qx(i), yrank(j) < yrank(i) },
// and its DP value is dp(i) = w(i) + max(0, max_{j in P(i)} dp(j)).
// For LIS, qx(i) = i and yrank is the value rank (rank(x) = LIS length
// ending at x). For Whac-A-Mole, objects are sorted by t+p, qx(i) excludes
// ties in t+p, and yrank ranks t-p.
//
// The engine runs the paper's wake-up strategy verbatim:
//   * every object initially gets one readiness check (the role of the
//     virtual point p[0]);
//   * an object that is not ready picks an unfinished object of P(i) as its
//     pivot (policy: uniformly random, or the rightmost heuristic of
//     Sec. 6.4) and goes to sleep in the pivot multi-map;
//   * when a frontier finishes, the objects pivoted on it are rechecked;
//   * readiness, DP values and pivot candidates all come from one O(log^2 n)
//     query on the augmented 2D range tree.
//
// Work O(n log^3 n) whp, span O(rank * log^2 n) whp (Theorem 5.6); the
// number of wake-up attempts per object is O(log n) whp (Lemma 5.5) and is
// reported in the returned statistics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/context.h"
#include "core/stats.h"
#include "pabst/multimap.h"
#include "parallel/primitives.h"
#include "parallel/random.h"
#include "rangetree/policies.h"
#include "rangetree/range_tree2d.h"

namespace pp {
// pivot_policy lives in core/context.h so that a context can carry it.

struct dominance_result {
  std::vector<int32_t> dp;  // dp value per object
  int64_t best = 0;         // max dp (0 for empty input)
  phase_stats stats;
};

namespace detail {

template <typename Agg>
dominance_result dominance_dp_impl(std::span<const uint32_t> y_ranks,
                                   std::span<const uint32_t> qx,
                                   std::span<const int32_t> weights, uint64_t seed) {
  const uint32_t n = static_cast<uint32_t>(y_ranks.size());
  dominance_result res;
  res.dp.assign(n, 0);
  if (n == 0) return res;

  range_tree2d<Agg> tree(
      y_ranks, [](uint32_t id) { return Agg::unfinished_leaf(id); }, seed);
  pivot_multimap<uint32_t, uint32_t> pivots;
  random_stream rs(hash64(seed ^ 0x5eedull));

  // Round 0 plays the role of the virtual point 0: attempt to wake
  // everyone once. Rank-1 objects succeed; the rest register a pivot.
  std::vector<uint32_t> todo = tabulate<uint32_t>(n, [](size_t i) { return static_cast<uint32_t>(i); });

  std::vector<uint8_t> ready_flag(n);
  std::vector<uint32_t> new_pivot(n);
  size_t round = 0;
  while (!todo.empty()) {
    cancel_point();  // between wake-up rounds: quiescent, cancellable
    ++round;
    res.stats.wakeup_attempts += todo.size();
    // Attempt to wake every object in the todo list (Lines 28-33).
    parallel_for(0, todo.size(), [&](size_t k) {
      uint32_t q = todo[k];
      auto v = tree.query_prefix(qx[q], y_ranks[q], rs.ith(round * n + q));
      if (!Agg::has_unfinished(v)) {
        int32_t base = Agg::dp_of(v);
        if (base == kDomNegInf) base = 0;  // empty dominated set
        if (base < 0) base = 0;
        res.dp[q] = (weights.empty() ? 1 : weights[q]) + base;
        ready_flag[q] = 1;
      } else {
        ready_flag[q] = 0;
        new_pivot[q] = Agg::cand_of(v);
      }
    });
    auto frontier = pack(std::span<const uint32_t>(todo),
                         [&](size_t k) { return ready_flag[todo[k]] != 0; });
    auto blocked = pack(std::span<const uint32_t>(todo),
                        [&](size_t k) { return ready_flag[todo[k]] == 0; });
    res.stats.record_frontier(frontier.size());

    // Register new pivots for the still-blocked objects (Lines 35-36).
    if (!blocked.empty()) {
      std::vector<pivot_multimap<uint32_t, uint32_t>::pair_t> pairs(blocked.size());
      parallel_for(0, blocked.size(), [&](size_t k) {
        pairs[k] = {new_pivot[blocked[k]], blocked[k]};
      });
      pivots.multi_insert(std::move(pairs));
    }

    // Publish the frontier's dp values in the range tree (Line 37).
    if (!frontier.empty()) {
      auto vals = tabulate<typename Agg::value_type>(frontier.size(), [&](size_t k) {
        return Agg::finished_leaf(frontier[k], res.dp[frontier[k]]);
      });
      tree.batch_update(frontier, vals, rs.ith(round));
      // Wake the objects pivoted on the finished frontier (Line 27).
      sort_inplace(std::span<uint32_t>(frontier));
      todo = pivots.extract_buckets(frontier);
    } else {
      todo.clear();
    }
  }

  int64_t best = 0;
  for (uint32_t i = 0; i < n; ++i) best = std::max<int64_t>(best, res.dp[i]);
  res.best = best;
  return res;
}

}  // namespace detail

// Solve the dominance DP under ctx; pivot policy and seed come from ctx.
// `weights` may be empty (unit weights). `qx[i]` is the exclusive x-bound
// of object i's dominated set (for plain LIS pass qx[i] = i).
inline dominance_result dominance_dp(std::span<const uint32_t> y_ranks,
                                     std::span<const uint32_t> qx,
                                     std::span<const int32_t> weights, const context& ctx) {
  run_scope scope(ctx);
  if (ctx.pivot == pivot_policy::uniform_random)
    return detail::dominance_dp_impl<dom_agg_random>(y_ranks, qx, weights, ctx.seed);
  return detail::dominance_dp_impl<dom_agg_rightmost>(y_ranks, qx, weights, ctx.seed);
}

}  // namespace pp
