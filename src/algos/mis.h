// Greedy maximal independent set (Sec. 5.3, Algorithm 4).
//
// All three implementations compute the *same* MIS — the greedy MIS under
// the given priority order — which is what makes them testable against
// each other:
//   mis_sequential — process vertices by priority; select if no selected
//                    neighbor. O(n + m).
//   mis_rounds     — round-based baseline in the style of deterministic
//                    reservations [BFGS12]: each round selects every
//                    undecided vertex that is a local priority minimum
//                    among undecided neighbors. O(rounds * m) work.
//   mis_tas        — Algorithm 4: fully asynchronous wake-ups through TAS
//                    trees over each vertex's blocking (higher-priority)
//                    neighbors. O(n + m) work: the setup splits each
//                    adjacency list by priority in one pass (no sort), and
//                    a decided vertex notifies only its later neighbors.
//                    O(log n log d_max) span whp with random priorities.
//
// Priorities are a permutation of 0..n-1; *smaller value = processed
// earlier*. Use pp::random_permutation for the random order the theory
// assumes (longest monotone path O(log n) whp, Fischer-Noever).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/context.h"
#include "core/stats.h"
#include "graph/csr.h"

namespace pp {

struct mis_result {
  std::vector<uint8_t> in_mis;  // 1 if selected
  size_t mis_size = 0;
  phase_stats stats;  // rounds (mis_rounds), max wake depth proxy in substeps (mis_tas)
};

mis_result mis_sequential(const graph& g, std::span<const uint32_t> priority,
                          const context& ctx);
mis_result mis_rounds(const graph& g, std::span<const uint32_t> priority, const context& ctx);
mis_result mis_tas(const graph& g, std::span<const uint32_t> priority, const context& ctx);

// Validation helper: independent + maximal.
bool is_maximal_independent_set(const graph& g, std::span<const uint8_t> in_mis);

}  // namespace pp
