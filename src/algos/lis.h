// Longest increasing subsequence (Sec. 5.2, Algorithm 3).
//
//   lis_sequential  — the classic O(n log n) DP the paper benchmarks
//                     against ("classic seq"): Fenwick prefix-max over
//                     value ranks.
//   lis_parallel    — the phase-parallel algorithm: rank(x) = LIS length
//                     ending at x; wake-up pivots + augmented 2D range
//                     tree. O(n log^3 n) work, O(k log^2 n) span whp for
//                     LIS length k. Both pivot policies of the paper.
//   lis_reconstruct — extract one optimal increasing subsequence from the
//                     dp values (linear scan certificate).
//
// Weighted variant: lis_parallel_weighted maximizes total weight of an
// increasing subsequence (the generalization noted in Sec. 5.2).
//
// Input generators for the paper's experiment patterns (Fig. 10): the
// `segment` pattern (k decreasing runs with noise; LIS ~ k) and the `line`
// pattern (a_i = t*i + noise).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/context.h"
#include "core/dominance_dp.h"
#include "core/stats.h"

namespace pp {

struct lis_result {
  std::vector<int32_t> dp;  // LIS length ending at each element
  int64_t length = 0;       // LIS length of the sequence (max weight if weighted)
  phase_stats stats;
};

// Classic sequential O(n log n) DP.
lis_result lis_sequential(std::span<const int64_t> a, const context& ctx);

// Sequential weighted LIS: maximize the sum of weights over increasing
// subsequences. O(n log n).
lis_result lis_sequential_weighted(std::span<const int64_t> a, std::span<const int32_t> w,
                                   const context& ctx);

// Phase-parallel LIS (Algorithm 3). Pivot policy and seed come from ctx.
lis_result lis_parallel(std::span<const int64_t> a, const context& ctx);

// Phase-parallel weighted LIS (weights must be positive).
lis_result lis_parallel_weighted(std::span<const int64_t> a, std::span<const int32_t> w,
                                 const context& ctx);

// Indices of one optimal increasing subsequence, given the dp array of the
// *unweighted* problem. O(n).
std::vector<uint32_t> lis_reconstruct(std::span<const int64_t> a, std::span<const int32_t> dp);

// --- Fig. 10 input generators -------------------------------------------------

// `segments` decreasing runs whose base values increase run over run;
// LIS size is ~`segments`.
std::vector<int64_t> lis_segment_pattern(size_t n, size_t segments, uint64_t seed);

// a_i = slope * i + uniform noise in [0, noise); LIS length grows with
// slope/noise ratio.
std::vector<int64_t> lis_line_pattern(size_t n, int64_t slope, int64_t noise, uint64_t seed);

}  // namespace pp
