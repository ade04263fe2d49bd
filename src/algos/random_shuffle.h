// Parallel random permutation = parallelized sequential Knuth shuffle
// (Sec. 5.3 "Other Algorithms"; Shun et al. [64] within the phase-parallel
// framework).
//
// The sequential algorithm performs swap(A[i], A[H[i]]) for i = 1..n-1
// with H[i] uniform in [0, i]. Iteration j relies on iteration i < j iff
// they touch a common cell (H[i] == H[j] or i == H[j]); the dependence
// forest has depth O(log n) whp. The parallel algorithm runs rounds of
// deterministic reservations [BFGS12]: every unfinished iteration reserves
// its two cells with write-min of its index; an iteration that owns both
// cells commits its swap. The output is *identical* to the sequential
// shuffle with the same H (determinism), and the number of rounds is the
// dependence-forest depth.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/context.h"
#include "core/stats.h"

namespace pp {

struct shuffle_result {
  std::vector<uint32_t> perm;  // the shuffled sequence (starts as identity)
  phase_stats stats;
};

// Swap targets H[i] in [0, i] for i in [1, n); H[0] is ignored.
std::vector<uint32_t> knuth_targets(size_t n, uint64_t seed);

// Sequential Fisher-Yates/Knuth shuffle with explicit targets.
shuffle_result knuth_shuffle_seq(size_t n, std::span<const uint32_t> targets,
                                 const context& ctx);

// Phase-parallel shuffle: same output as knuth_shuffle_seq for the same
// targets, O(depth) rounds (depth = O(log n) whp).
shuffle_result knuth_shuffle_parallel(size_t n, std::span<const uint32_t> targets,
                                      const context& ctx);

}  // namespace pp
