// Whac-A-Mole (Appendix B of the paper).
//
// Moles pop up at (time t_i, position p_i) for a unit instant; the hammer
// moves at unit speed; maximize the number of moles hit. DP over moles in
// time order: mole j can precede mole i iff |p_j - p_i| <= t_i - t_j,
// which the paper rewrites (Eqs. 5-6) as the 2D strict dominance
//   t_j + p_j < t_i + p_i   and   t_j - p_j < t_i - p_i,
// so the problem is the LIS dominance DP in rotated coordinates and runs
// on the same Type-2 engine (core/dominance_dp.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/context.h"
#include "core/dominance_dp.h"
#include "core/stats.h"

namespace pp {

struct mole {
  int64_t t;  // pop-up time
  int64_t p;  // position on the (1D) number line
};

struct whac_result {
  std::vector<int32_t> dp;  // moles hit by the best plan ending at mole i (input order)
  int64_t best = 0;
  phase_stats stats;
};

// O(n log n) sequential DP (Fenwick over v-ranks in u order).
whac_result whac_sequential(std::span<const mole> moles, const context& ctx);

// O(n^2) reference, for testing.
whac_result whac_bruteforce(std::span<const mole> moles);

// Phase-parallel via the dominance engine. Pivot policy and seed come
// from ctx.
whac_result whac_parallel(std::span<const mole> moles, const context& ctx);

// Random instance: moles with times in [0, t_range) and positions in
// [0, p_range). Smaller p_range relative to t_range => deeper DP chains.
std::vector<mole> random_moles(size_t n, int64_t t_range, int64_t p_range, uint64_t seed);

}  // namespace pp
