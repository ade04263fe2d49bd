#include "algos/relaxed.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/cancel.h"
#include "parallel/api.h"
#include "parallel/multiqueue.h"
#include "parallel/primitives.h"

namespace pp {

namespace {

void fold_counters(phase_stats& st, const mq_counters& c) {
  st.popped = c.popped;
  st.wasted = c.wasted;
  st.retries = c.retries;
}

}  // namespace

// ---- MIS --------------------------------------------------------------------
//
// Every vertex sits in the queue (re-inserting itself while blocked), and
// decides itself the moment all earlier-priority neighbors are decided:
// selected iff none of them was selected. Two adjacent vertices can never
// both be "ready" (one blocks the other), so the decision reads only final
// write-once states and the result is exactly the greedy MIS.
mis_result mis_relaxed(const graph& g, std::span<const uint32_t> priority, const context& ctx) {
  run_scope scope(ctx);
  const vertex_t n = g.num_vertices();
  mis_result res;
  res.in_mis.assign(n, 0);

  // 0 undecided, 1 selected, 2 removed; written once, on decision.
  std::vector<std::atomic<uint8_t>> status(n);
  parallel_for(ctx, 0, n, [&](size_t v) { status[v].store(0, std::memory_order_relaxed); });

  multiqueue q(ctx.relax_k);
  {
    const random_stream seed_rs(ctx.seed);
    uint64_t draw = 0;
    for (vertex_t v = 0; v < n; ++v) q.push(priority[v], v, seed_rs, draw);
  }

  mq_counters c = mq_run(ctx, q, [&](mq_worker& w, uint64_t prio, uint32_t v) {
    if (status[v].load(std::memory_order_acquire) != 0) {
      w.wasted();
      return;
    }
    const uint32_t pv = priority[v];
    bool selected_nbr = false;
    for (auto u : g.neighbors(v)) {
      if (priority[u] >= pv) continue;
      uint8_t s = status[u].load(std::memory_order_acquire);
      if (s == 0) {
        w.retry(prio, v);  // blocked: back into the queue
        return;
      }
      selected_nbr |= s == 1;
    }
    status[v].store(selected_nbr ? 2 : 1, std::memory_order_release);
  });

  parallel_for(ctx, 0, n, [&](size_t v) {
    res.in_mis[v] = status[v].load(std::memory_order_relaxed) == 1;
  });
  for (vertex_t v = 0; v < n; ++v) res.mis_size += res.in_mis[v];
  res.stats.processed = n;
  fold_counters(res.stats, c);
  return res;
}

// ---- Coloring ---------------------------------------------------------------
coloring_result coloring_relaxed(const graph& g, std::span<const uint32_t> priority,
                                 const context& ctx) {
  run_scope scope(ctx);
  const vertex_t n = g.num_vertices();
  constexpr uint32_t kUncolored = 0xFFFFFFFFu;

  // A vertex's color doubles as its decided flag (write-once).
  std::vector<std::atomic<uint32_t>> color(n);
  parallel_for(ctx, 0, n,
               [&](size_t v) { color[v].store(kUncolored, std::memory_order_relaxed); });

  multiqueue q(ctx.relax_k);
  {
    const random_stream seed_rs(ctx.seed);
    uint64_t draw = 0;
    for (vertex_t v = 0; v < n; ++v) q.push(priority[v], v, seed_rs, draw);
  }

  mq_counters c = mq_run(ctx, q, [&](mq_worker& w, uint64_t prio, uint32_t v) {
    if (color[v].load(std::memory_order_acquire) != kUncolored) {
      w.wasted();
      return;
    }
    const uint32_t pv = priority[v];
    // mex over earlier-priority neighbors: with b of them, the answer is
    // <= b, so a b+1 bitmap suffices (same bound mex_color uses).
    auto nbrs = g.neighbors(v);
    std::vector<uint8_t> used(nbrs.size() + 1, 0);
    for (auto u : nbrs) {
      if (priority[u] >= pv) continue;
      uint32_t cu = color[u].load(std::memory_order_acquire);
      if (cu == kUncolored) {
        w.retry(prio, v);
        return;
      }
      if (cu < used.size()) used[cu] = 1;
    }
    uint32_t cv = 0;
    while (used[cv]) ++cv;
    color[v].store(cv, std::memory_order_release);
  });

  coloring_result res;
  res.color.assign(n, kUncolored);
  parallel_for(ctx, 0, n,
               [&](size_t v) { res.color[v] = color[v].load(std::memory_order_relaxed); });
  for (auto cv : res.color) res.num_colors = std::max(res.num_colors, cv + 1);
  res.stats.processed = n;
  fold_counters(res.stats, c);
  return res;
}

// ---- Matching ---------------------------------------------------------------
//
// Queue elements are canonical edge indices, priority = edge rank. An edge
// is ready once every earlier-priority edge sharing an endpoint is decided
// (so the endpoints' matched state is final): matched iff both endpoints
// are still free. No drop propagation — an edge whose endpoint was taken
// drops *itself* when it becomes ready, which keeps every estate/partner
// write single-writer and the result exactly the greedy matching.
matching_result matching_relaxed(const graph& g, std::span<const uint32_t> edge_priority,
                                 const context& ctx) {
  run_scope scope(ctx);
  const vertex_t n = g.num_vertices();
  const auto edges = canonical_edges(g);
  const size_t m = edges.size();

  // Per-vertex incidence lists sorted by edge priority (as matching_rounds).
  std::vector<size_t> voff(n + 1, 0);
  for (const auto& e : edges) {
    voff[e.u + 1]++;
    voff[e.v + 1]++;
  }
  for (vertex_t v = 0; v < n; ++v) voff[v + 1] += voff[v];
  std::vector<uint32_t> incident(2 * m);
  {
    std::vector<size_t> cursor(voff.begin(), voff.end() - 1);
    for (uint32_t e = 0; e < m; ++e) {
      incident[cursor[edges[e].u]++] = e;
      incident[cursor[edges[e].v]++] = e;
    }
  }
  parallel_for(ctx, 0, n, [&](size_t v) {
    std::sort(incident.begin() + voff[v], incident.begin() + voff[v + 1],
              [&](uint32_t a, uint32_t b) { return edge_priority[a] < edge_priority[b]; });
  });

  // 0 undecided, 1 matched, 2 dropped; written once by the edge's own claim.
  std::vector<std::atomic<uint8_t>> estate(m);
  parallel_for(ctx, 0, m, [&](size_t e) { estate[e].store(0, std::memory_order_relaxed); });
  std::vector<std::atomic<uint32_t>> partner(n);
  parallel_for(ctx, 0, n,
               [&](size_t v) { partner[v].store(kUnmatched, std::memory_order_relaxed); });
  // Monotone skip hint: everything in incident[voff[v], hint[v]) is
  // decided. Advancing is a benign CAS-max — the truth is re-derived from
  // estate on every scan, the hint only bounds rescans.
  std::vector<std::atomic<size_t>> hint(n);
  parallel_for(ctx, 0, n, [&](size_t v) { hint[v].store(voff[v], std::memory_order_relaxed); });

  // Index of v's first undecided incident edge (voff[v+1] if none).
  auto first_undecided = [&](vertex_t v) -> size_t {
    size_t h = hint[v].load(std::memory_order_relaxed);
    while (h < voff[v + 1] && estate[incident[h]].load(std::memory_order_acquire) != 0) ++h;
    write_max(&hint[v], h);
    return h;
  };

  multiqueue q(ctx.relax_k);
  {
    const random_stream seed_rs(ctx.seed);
    uint64_t draw = 0;
    for (uint32_t e = 0; e < m; ++e) q.push(edge_priority[e], e, seed_rs, draw);
  }

  mq_counters c = mq_run(ctx, q, [&](mq_worker& w, uint64_t prio, uint32_t e) {
    if (estate[e].load(std::memory_order_acquire) != 0) {
      w.wasted();
      return;
    }
    const auto [u, v] = edges[e];
    size_t hu = first_undecided(u);
    if (hu >= voff[u + 1] || incident[hu] != e) {
      w.retry(prio, e);  // an earlier edge at u is still undecided
      return;
    }
    size_t hv = first_undecided(v);
    if (hv >= voff[v + 1] || incident[hv] != e) {
      w.retry(prio, e);
      return;
    }
    // Every earlier incident edge at u and v is decided, so the endpoints'
    // matched state is final (only earlier edges could have taken them).
    bool u_free = partner[u].load(std::memory_order_acquire) == kUnmatched;
    bool v_free = partner[v].load(std::memory_order_acquire) == kUnmatched;
    if (u_free && v_free) {
      partner[u].store(v, std::memory_order_relaxed);
      partner[v].store(u, std::memory_order_relaxed);
      estate[e].store(1, std::memory_order_release);  // publishes the partner writes
    } else {
      estate[e].store(2, std::memory_order_release);
    }
  });

  matching_result res;
  res.partner.assign(n, kUnmatched);
  parallel_for(ctx, 0, n,
               [&](size_t v) { res.partner[v] = partner[v].load(std::memory_order_relaxed); });
  for (vertex_t v = 0; v < n; ++v)
    if (res.partner[v] != kUnmatched && res.partner[v] > v) res.matching_size++;
  res.stats.processed = m;
  fold_counters(res.stats, c);
  return res;
}

// ---- SSSP -------------------------------------------------------------------
//
// Relaxed asynchronous Dijkstra: pop an approximately-closest (d, v); if d
// is stale the pop is wasted, otherwise relax v's out-edges with write_min
// and re-insert every neighbor that improved. Settling out of order never
// breaks exactness — an early-settled vertex is re-inserted when a shorter
// path arrives — it only costs wasted pops, which is the relaxation-cost
// curve the ablation measures.
sssp_result sssp_relaxed(const wgraph& g, vertex_t source, const context& ctx) {
  run_scope scope(ctx);
  const vertex_t n = g.num_vertices();
  std::vector<std::atomic<int64_t>> dist(n);
  parallel_for(ctx, 0, n,
               [&](size_t v) { dist[v].store(kInfDist, std::memory_order_relaxed); });
  std::atomic<size_t> relaxations{0};

  multiqueue q(ctx.relax_k);
  if (n > 0) {
    dist[source].store(0, std::memory_order_relaxed);
    const random_stream seed_rs(ctx.seed);
    uint64_t draw = 0;
    q.push(0, source, seed_rs, draw);
  }

  mq_counters c = mq_run(ctx, q, [&](mq_worker& w, uint64_t prio, uint32_t v) {
    const int64_t d = static_cast<int64_t>(prio);
    if (d > dist[v].load(std::memory_order_acquire)) {
      w.wasted();  // a shorter path already settled v
      return;
    }
    auto nbrs = g.out_neighbors(v);
    auto wts = g.out_weights(v);
    size_t improved = 0;
    for (size_t j = 0; j < nbrs.size(); ++j) {
      int64_t nd = d + wts[j];
      if (write_min(&dist[nbrs[j]], nd)) {
        w.push(static_cast<uint64_t>(nd), nbrs[j]);
        ++improved;
      }
    }
    relaxations.fetch_add(improved, std::memory_order_relaxed);
  });

  sssp_result res;
  res.dist.assign(n, kInfDist);
  parallel_for(ctx, 0, n,
               [&](size_t v) { res.dist[v] = dist[v].load(std::memory_order_relaxed); });
  res.stats.processed = n;
  res.stats.relaxations = relaxations.load(std::memory_order_relaxed);
  fold_counters(res.stats, c);
  return res;
}

}  // namespace pp
