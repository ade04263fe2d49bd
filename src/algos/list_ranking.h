// Parallel list ranking via phase-parallel list contraction (Sec. 5.3
// "Other Algorithms": random permutation, list ranking and tree
// contraction have constant-size P(x), so the TAS-tree wake-up specializes
// to a constant-size readiness check).
//
// The sequential iterative algorithm splices nodes out of a linked list in
// random priority order, accumulating edge weights; replaying the splices
// backwards yields every node's rank (distance from the head). A node may
// be spliced as soon as both its current neighbors have higher priority —
// the same local-minimum rule as greedy MIS restricted to a path — and
// with random priorities the dependence depth is O(log n) whp.
//
// contraction rounds run the splices phase-parallel; the expansion replays
// them round by round in reverse. Output: rank[v] = #nodes before v.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/context.h"
#include "core/stats.h"

namespace pp {

struct list_ranking_result {
  std::vector<uint64_t> rank;  // position of each node in list order
  phase_stats stats;           // rounds = contraction rounds
};

// next[v] = successor of v, or kListEnd; exactly one head (no incoming
// edge). The list must be a single chain covering all n nodes.
inline constexpr uint32_t kListEnd = 0xFFFFFFFFu;

// O(n) sequential traversal (baseline).
list_ranking_result list_ranking_seq(std::span<const uint32_t> next, const context& ctx);

// Phase-parallel contraction/expansion; same output. The contraction
// priorities are drawn from ctx.seed.
list_ranking_result list_ranking_parallel(std::span<const uint32_t> next, const context& ctx);

struct weighted_ranking_result {
  std::vector<int64_t> rank;  // sum of weights of nodes strictly before v
  phase_stats stats;
};

// Weighted generalization: rank[v] = sum of w[u] over nodes u strictly
// before v in list order (weights may be negative — used for Euler-tour
// depth computation). Same contraction algorithm.
weighted_ranking_result list_ranking_weighted_seq(std::span<const uint32_t> next,
                                                  std::span<const int64_t> w,
                                                  const context& ctx);
weighted_ranking_result list_ranking_weighted_parallel(std::span<const uint32_t> next,
                                                       std::span<const int64_t> w,
                                                       const context& ctx);

// Depth of every node of a forest (roots have depth 1), via an Euler tour
// ranked with +1/-1 weights — the standard tree-contraction route the
// paper invokes for Theorem 5.3. parent[v] = kListEnd for roots. O(n)
// work, polylog span whp.
weighted_ranking_result forest_depths_euler(std::span<const uint32_t> parent,
                                            const context& ctx);

// A random chain over n nodes (for tests/benches): returns next[].
std::vector<uint32_t> random_list(size_t n, uint64_t seed);

}  // namespace pp
