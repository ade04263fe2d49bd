#include "algos/knapsack.h"

#include <algorithm>
#include <cassert>

#include "core/cancel.h"
#include "parallel/api.h"
#include "parallel/primitives.h"
#include "parallel/random.h"

namespace pp {

knapsack_result knapsack_seq(int64_t W, std::span<const knapsack_item> items,
                             const context& ctx) {
  run_scope scope(ctx);
  knapsack_result res;
  res.dp.assign(static_cast<size_t>(W) + 1, 0);
  for (int64_t j = 1; j <= W; ++j) {
    int64_t best = 0;
    for (const auto& it : items)
      if (it.weight <= j) best = std::max(best, res.dp[j - it.weight] + it.value);
    res.dp[j] = best;
  }
  res.best = res.dp[W];
  return res;
}

knapsack_result knapsack_parallel(int64_t W, std::span<const knapsack_item> items,
                                  const context& ctx) {
  run_scope scope(ctx);
  knapsack_result res;
  res.dp.assign(static_cast<size_t>(W) + 1, 0);
  if (items.empty()) return res;
  int64_t wstar = items[0].weight;
  for (const auto& it : items) {
    assert(it.weight >= 1);
    wstar = std::min(wstar, it.weight);
  }
  // Round r settles the whole window [r*w*, (r+1)*w*): every dependence
  // dp[j - w_i] has j - w_i <= j - w* < r*w*, i.e. lies in earlier rounds.
  for (int64_t lo = 0; lo <= W; lo += wstar) {
    cancel_point();  // between window rounds: quiescent, cancellable
    int64_t hi = std::min<int64_t>(W + 1, lo + wstar);
    res.stats.record_frontier(static_cast<size_t>(hi - lo));
    parallel_for(ctx, static_cast<size_t>(lo), static_cast<size_t>(hi), [&](size_t j) {
      int64_t best = 0;
      for (const auto& it : items)
        if (it.weight <= static_cast<int64_t>(j))
          best = std::max(best, res.dp[j - it.weight] + it.value);
      res.dp[j] = best;
    }, detail::grain_for_cost(items.size()));  // each dp[j] scans every item
  }
  res.best = res.dp[W];
  return res;
}

std::vector<knapsack_item> random_items(size_t n, int64_t w_min, int64_t w_max, int64_t v_max,
                                        uint64_t seed) {
  random_stream rs(seed);
  return tabulate<knapsack_item>(n, [&](size_t i) {
    return knapsack_item{rs.ith_range(2 * i, w_min, w_max), rs.ith_range(2 * i + 1, 1, v_max)};
  });
}

}  // namespace pp
