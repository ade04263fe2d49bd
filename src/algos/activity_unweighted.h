// Unweighted activity selection (Sec. 5.1, Theorem 5.3).
//
// With unit weights the DP collapses to dp[i] = dp[pivot(i)] + 1 where
// pivot(i) is the latest-starting compatible predecessor (Lemma 5.1), so
// the dependence graph is a forest and the answer is its depth. The paper
// computes depths by tree contraction in O(n) work / O(log n) span whp; we
// use pointer jumping (doubling) instead — O(n log r) work, O(log n log r)
// span for answer r — a documented deviation (DESIGN.md §4.2) with the
// same output.
//
// The answer (max rank) equals the size of the classic earliest-end greedy
// solution, which we also implement as the sequential baseline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "algos/activity.h"
#include "core/context.h"
#include "core/stats.h"

namespace pp {

struct unweighted_activity_result {
  std::vector<int32_t> rank;  // rank (= dp value) per activity
  int64_t best = 0;           // max #compatible activities
  phase_stats stats;
};

// Classic earliest-end greedy; returns the selected count (and marks ranks
// of selected activities only as 1,2,3,... along the greedy chain; other
// entries are 0).
unweighted_activity_result activity_unweighted_greedy_seq(std::span<const activity> acts,
                                                          const context& ctx);

// Pivot-forest + pointer-jumping parallel algorithm (simple variant:
// O(n log r) work).
unweighted_activity_result activity_unweighted_parallel(std::span<const activity> acts,
                                                        const context& ctx);

// Pivot-forest + Euler-tour depth computation via weighted list ranking —
// the contraction-based O(n)-work route of Theorem 5.3. Same output; the
// contraction seed is ctx.seed.
unweighted_activity_result activity_unweighted_euler(std::span<const activity> acts,
                                                     const context& ctx);

}  // namespace pp
