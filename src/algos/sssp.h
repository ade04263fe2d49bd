// Single-source shortest paths (Sec. 4.3 + Sec. 6.3).
//
// The phase-parallel relaxed rank of a vertex is ceil(d(v)/w*), w* the
// minimum edge weight: distances within one w*-window cannot rely on each
// other, so each window can be settled in parallel. That is exactly
// Delta-stepping with Delta = w* (the paper's observation, tested in their
// Fig. 6 with the implementation of Dong et al.).
//
//   sssp_dijkstra       — sequential binary-heap Dijkstra (work-efficient
//                         baseline);
//   sssp_bellman_ford   — frontier-based parallel Bellman-Ford (max
//                         parallelism, extra work);
//   sssp_delta_stepping — Meyer-Sanders buckets with light/heavy edge
//                         split and CAS write-min relaxations;
//   sssp_phase_parallel — Delta-stepping with Delta = w* (Theorem 4.5).
//
// Whenever Delta <= w*, an edge out of bucket i (d in [i*Delta,
// (i+1)*Delta)) lands at d + w >= (i+1)*Delta, never in bucket i. Such a
// bucket settles in one substep that relaxes all its out-edges and needs no
// heavy phase, so each edge out of a reachable vertex is relaxed exactly
// once: `relaxations` equals Dijkstra's.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/context.h"
#include "core/stats.h"
#include "graph/csr.h"

namespace pp {

inline constexpr int64_t kInfDist = std::numeric_limits<int64_t>::max() / 4;

struct sssp_result {
  std::vector<int64_t> dist;  // kInfDist where unreachable
  phase_stats stats;          // rounds = buckets/steps, substeps = inner iterations
};

sssp_result sssp_dijkstra(const wgraph& g, vertex_t source, const context& ctx);
sssp_result sssp_bellman_ford(const wgraph& g, vertex_t source, const context& ctx);
sssp_result sssp_delta_stepping(const wgraph& g, vertex_t source, uint32_t delta,
                                const context& ctx);
sssp_result sssp_phase_parallel(const wgraph& g, vertex_t source, const context& ctx);

// Incremental re-solve after edge insertions (the session delta shape,
// src/serve/session.h): `prior` holds exact distances in g minus the
// `inserted` edges. Old paths survive insertion, so every prior label is a
// valid upper bound in g, and any vertex whose distance improved lies
// downstream of an inserted edge — seeding a Dijkstra queue with just the
// endpoints the insertions improve re-settles exactly the affected
// subgraph. Output is bit-identical to a from-scratch solve. `prior` must
// NOT be reused across removals or weight increases (labels stop being
// upper bounds); the session store enforces that invalidation rule.
sssp_result sssp_incremental(const wgraph& g, vertex_t source, std::span<const int64_t> prior,
                             std::span<const wgraph::wedge> inserted, const context& ctx);

// The alternative relaxed rank the paper points to (Sec. 4.3, [Crauser et
// al. 98]): in each round settle every queued vertex v with
//   dist(v) <= min_u (dist(u) + min_out_weight(u))        (OUT-criterion)
// or, when `use_in_criterion`,
//   dist(v) - min_in_weight(v) <= min_u dist(u)           (IN-criterion)
// as well. Settled vertices can never be improved, so each is relaxed
// once — work-efficient like Dijkstra, with multi-vertex rounds.
sssp_result sssp_crauser(const wgraph& g, vertex_t source, bool use_in_criterion,
                         const context& ctx);

}  // namespace pp
