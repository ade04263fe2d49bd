// Greedy maximal matching (Sec. 5.3 "Graph Coloring and Matching").
//
// Sequential: process edges by random priority; take an edge when both
// endpoints are free. Parallel: the round-synchronized variant the paper
// describes (an edge's readiness involves both endpoints, so rounds are
// synchronized): each round decides every edge that is the highest-
// priority undecided edge at *both* endpoints, then drops edges incident
// to newly matched vertices. With random edge priorities the number of
// rounds is O(log n) whp (Fischer-Noever), and both variants return the
// identical matching.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/context.h"
#include "core/stats.h"
#include "graph/csr.h"

namespace pp {

struct matching_result {
  // For each vertex, the matched partner or kUnmatched.
  std::vector<uint32_t> partner;
  size_t matching_size = 0;
  phase_stats stats;
};

inline constexpr uint32_t kUnmatched = 0xFFFFFFFFu;

// `edge_priority[e]` is a permutation of 0..m-1 over the unique undirected
// edges of g in the canonical (u < v, sorted) order; smaller = earlier.
matching_result matching_sequential(const graph& g, std::span<const uint32_t> edge_priority,
                                    const context& ctx);
matching_result matching_rounds(const graph& g, std::span<const uint32_t> edge_priority,
                                const context& ctx);

// List of unique undirected edges (u < v) in the canonical order used for
// edge priorities.
std::vector<edge> canonical_edges(const graph& g);

// Matched pairs agree, no vertex matched twice, and no edge joins two
// unmatched vertices (maximality).
bool is_maximal_matching(const graph& g, std::span<const uint32_t> partner);

}  // namespace pp
