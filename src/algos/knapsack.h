// Unlimited (unbounded) knapsack (Sec. 4.2).
//
// dp[j] = max(0, max_{w_i <= j} dp[j - w_i] + v_i)  for j = 0..W  (Eq. 2).
// The rank of state j is floor(j / w*), w* the minimum item weight: states
// within one w*-window cannot depend on each other, so the phase-parallel
// frontier of round r is the whole window [r*w*, (r+1)*w*) processed in
// parallel (Theorem 4.3: O(nW) work, O((W/w*) log n) span).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/context.h"
#include "core/stats.h"

namespace pp {

struct knapsack_item {
  int64_t weight;  // >= 1
  int64_t value;   // >= 0
};

struct knapsack_result {
  std::vector<int64_t> dp;  // dp[0..W]
  int64_t best = 0;         // dp[W]
  phase_stats stats;
};

// Classic sequential O(nW) DP.
knapsack_result knapsack_seq(int64_t W, std::span<const knapsack_item> items,
                             const context& ctx);

// Phase-parallel windows of width w* (Theorem 4.3).
knapsack_result knapsack_parallel(int64_t W, std::span<const knapsack_item> items,
                                  const context& ctx);

// Random items with weights in [w_min, w_max], values in [1, v_max].
std::vector<knapsack_item> random_items(size_t n, int64_t w_min, int64_t w_max, int64_t v_max,
                                        uint64_t seed);

}  // namespace pp
