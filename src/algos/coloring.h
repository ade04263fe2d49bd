// Greedy graph coloring, Jones–Plassmann order (Sec. 5.3 "Graph Coloring
// and Matching").
//
// Sequential greedy: process vertices by priority; give each the smallest
// color unused by already-colored neighbors. The parallel version wakes a
// vertex through a TAS tree the moment its last higher-priority neighbor
// is colored — the same wake-up structure as Algorithm 4, giving O(n + m)
// work (the setup splits each adjacency list by priority in one pass, not
// a sort) and O(span of the priority DAG * log d_max) span; with random
// priorities the DAG depth is O(log n) whp.
//
// Both produce the identical coloring (the greedy coloring is a
// deterministic function of the priority order).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/context.h"
#include "core/stats.h"
#include "graph/csr.h"

namespace pp {

struct coloring_result {
  std::vector<uint32_t> color;  // 0-based colors
  uint32_t num_colors = 0;
  phase_stats stats;
};

coloring_result coloring_sequential(const graph& g, std::span<const uint32_t> priority,
                                    const context& ctx);
coloring_result coloring_tas(const graph& g, std::span<const uint32_t> priority,
                             const context& ctx);

// No two adjacent vertices share a color.
bool is_valid_coloring(const graph& g, std::span<const uint32_t> color);

}  // namespace pp
