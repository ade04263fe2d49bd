// Asynchronous solver variants on the relaxed k-MultiQueue scheduler
// (parallel/multiqueue.h) — the second execution paradigm next to the
// paper-faithful phase-synchronous solvers.
//
// Each variant runs the *same greedy* its phase sibling runs, but workers
// claim elements from a relaxed priority queue instead of synchronizing on
// round barriers:
//   mis_relaxed      — priority = vertex rank; a claimed vertex decides
//                      itself once every earlier-priority neighbor is
//                      decided, otherwise it re-inserts itself (a counted
//                      retry).
//   coloring_relaxed — same wake discipline; a ready vertex takes the mex
//                      color of its earlier-priority neighbors.
//   matching_relaxed — priority = edge rank over canonical_edges(g); a
//                      claimed edge decides itself once every earlier
//                      incident edge at both endpoints is decided (matched
//                      iff both endpoints are still free).
//   sssp_relaxed     — relaxed asynchronous Dijkstra: priority = tentative
//                      distance; a claimed vertex re-inserts every
//                      neighbor it improves, stale claims are cheap wasted
//                      pops. Distances are exact.
//
// Determinism contract: phase solvers stay the bit-stable reference (the
// golden table covers them, not these); relaxed outputs are validated
// *structurally* — valid MIS / maximal matching / proper coloring / exact
// SSSP distances (tests/checkers.h). The current implementations decide
// every element from the final states of its earlier-priority dependencies
// only, so they happen to reproduce the greedy reference exactly — but
// only the structural guarantee is contractual.
//
// The relaxation factor is context::relax_k; the scheduler counters land
// in phase_stats::{popped, wasted, retries}.
#pragma once

#include <cstdint>
#include <span>

#include "algos/coloring.h"
#include "algos/matching.h"
#include "algos/mis.h"
#include "algos/sssp.h"
#include "core/context.h"
#include "graph/csr.h"

namespace pp {

mis_result mis_relaxed(const graph& g, std::span<const uint32_t> priority, const context& ctx);
coloring_result coloring_relaxed(const graph& g, std::span<const uint32_t> priority,
                                 const context& ctx);
matching_result matching_relaxed(const graph& g, std::span<const uint32_t> edge_priority,
                                 const context& ctx);
sssp_result sssp_relaxed(const wgraph& g, vertex_t source, const context& ctx);

}  // namespace pp
