// Weighted activity selection (Sec. 4.1 Algorithm 2, and Sec. 5.1).
//
// Given activities (start, end, weight) the DP over activities sorted by
// end time is  dp[i] = w_i + max(0, max{dp[j] : e_j <= s_i})  (Eq. 1); the
// answer is max_i dp[i]. The rank of activity i is the maximum number of
// pairwise-compatible activities ending with i.
//
// Three implementations sharing that contract:
//   activity_select_seq        — classic sequential O(n log n) DP
//                                (Fenwick prefix-max over the end order);
//   activity_select_type1      — Algorithm 2: frontier = all unfinished
//                                activities starting before the earliest
//                                unfinished end; T_time is the start order
//                                with suffix minima of end, T_DP an atomic
//                                prefix-max Fenwick;
//   activity_select_type2      — Sec. 5.1: each activity pivots on the
//                                latest-starting compatible predecessor
//                                (Lemma 5.1: rank(x) = rank(pivot)+1), so
//                                wake-ups advance exactly one rank per
//                                round.
//
// All variants take O(n log n) work and O(rank(S) log n) span and return
// identical dp arrays. Precondition: activities sorted by (end, start)
// with positive durations (start < end); see sort_activities().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/context.h"
#include "core/stats.h"

namespace pp {

struct activity {
  int64_t start;
  int64_t end;
  int64_t weight;
};

struct activity_result {
  std::vector<int64_t> dp;  // best total weight of a compatible set ending with i
  int64_t best = 0;
  phase_stats stats;
};

// Sort into the canonical sequential order (end, then start, stable).
void sort_activities(std::vector<activity>& acts);

activity_result activity_select_seq(std::span<const activity> acts, const context& ctx);
activity_result activity_select_type1(std::span<const activity> acts, const context& ctx);
activity_result activity_select_type2(std::span<const activity> acts, const context& ctx);

// Random instance following Sec. 6.1: uniform start times in [0, t_range),
// truncated-normal durations (mean_len, sd_len, min 1), uniform weights in
// [1, max_weight]. Result is sorted by sort_activities. Larger mean_len /
// t_range ratios give larger ranks.
std::vector<activity> random_activities(size_t n, int64_t t_range, double mean_len,
                                        double sd_len, int64_t max_weight, uint64_t seed);

}  // namespace pp
