#include "algos/matching.h"

#include <algorithm>
#include <atomic>

#include "core/cancel.h"
#include "parallel/api.h"
#include "parallel/primitives.h"
#include "parallel/sort.h"

namespace pp {

std::vector<edge> canonical_edges(const graph& g) {
  std::vector<edge> out;
  out.reserve(g.num_edges());
  for (vertex_t v = 0; v < g.num_vertices(); ++v)
    for (auto u : g.neighbors(v))
      if (v < u) out.push_back({v, u});
  return out;
}

matching_result matching_sequential(const graph& g, std::span<const uint32_t> edge_priority,
                                    const context& ctx) {
  run_scope scope(ctx);
  auto edges = canonical_edges(g);
  matching_result res;
  res.partner.assign(g.num_vertices(), kUnmatched);
  auto order = sort_indices(edges.size(), [&](uint32_t a, uint32_t b) {
    return edge_priority[a] < edge_priority[b];
  });
  for (auto e : order) {
    auto [u, v] = edges[e];
    if (res.partner[u] == kUnmatched && res.partner[v] == kUnmatched) {
      res.partner[u] = v;
      res.partner[v] = u;
      res.matching_size++;
    }
  }
  return res;
}

matching_result matching_rounds(const graph& g, std::span<const uint32_t> edge_priority,
                                const context& ctx) {
  run_scope scope(ctx);
  auto edges = canonical_edges(g);
  size_t m = edges.size();
  matching_result res;
  res.partner.assign(g.num_vertices(), kUnmatched);

  // Per-vertex incidence lists sorted by edge priority.
  vertex_t n = g.num_vertices();
  std::vector<size_t> voff(n + 1, 0);
  for (auto& e : edges) {
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
  parallel_for(0, n, [&](size_t v) {
    std::sort(incident.begin() + voff[v], incident.begin() + voff[v + 1],
              [&](uint32_t a, uint32_t b) { return edge_priority[a] < edge_priority[b]; });
  });

  // head[v] = index into incident[] of the first undecided edge at v.
  std::vector<size_t> head(n);
  parallel_for(0, n, [&](size_t v) { head[v] = voff[v]; });
  // 0 undecided, 1 matched, 2 dropped
  std::vector<std::atomic<uint8_t>> estate(m);

  auto advance_head = [&](vertex_t v) {
    while (head[v] < voff[v + 1] &&
           estate[incident[head[v]]].load(std::memory_order_relaxed) != 0)
      head[v]++;
  };

  // Candidates for "locally first at both endpoints": start with all
  // vertices' heads; after each round only endpoints whose head moved can
  // produce new ready edges.
  auto live_vertices = tabulate<vertex_t>(n, [](size_t v) { return static_cast<vertex_t>(v); });
  size_t undecided = m;
  while (undecided > 0) {
    cancel_point();  // between matching rounds: quiescent, cancellable
    // collect ready edges: first undecided at both endpoints
    std::vector<uint32_t> ready;
    for (auto v : live_vertices) {
      advance_head(v);
      if (head[v] >= voff[v + 1]) continue;
      uint32_t e = incident[head[v]];
      auto [a, b] = edges[e];
      vertex_t other = a == v ? b : a;
      advance_head(other);
      if (head[other] < voff[other + 1] && incident[head[other]] == e && v < other)
        ready.push_back(e);
    }
    if (ready.empty()) break;  // all remaining edges are decided
    res.stats.record_frontier(ready.size());
    // Decide ready edges: both endpoints are free (all earlier incident
    // edges are decided and did not match them — else this edge would have
    // been dropped), so they match.
    parallel_for(0, ready.size(), [&](size_t i) {
      uint32_t e = ready[i];
      estate[e].store(1, std::memory_order_relaxed);
      res.partner[edges[e].u] = edges[e].v;
      res.partner[edges[e].v] = edges[e].u;
    });
    res.matching_size += ready.size();
    undecided -= ready.size();
    // Drop undecided edges incident to newly matched vertices.
    std::atomic<size_t> dropped{0};
    parallel_for(0, ready.size(), [&](size_t i) {
      uint32_t e = ready[i];
      for (vertex_t v : {edges[e].u, edges[e].v}) {
        for (size_t j = voff[v]; j < voff[v + 1]; ++j) {
          uint32_t f = incident[j];
          uint8_t expect = 0;
          if (estate[f].compare_exchange_strong(expect, 2, std::memory_order_relaxed))
            dropped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    undecided -= dropped.load();
  }
  return res;
}

bool is_maximal_matching(const graph& g, std::span<const uint32_t> partner) {
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (partner[v] != kUnmatched) {
      if (partner[v] >= g.num_vertices()) return false;
      if (partner[partner[v]] != v) return false;
      auto nbrs = g.neighbors(v);
      if (std::find(nbrs.begin(), nbrs.end(), partner[v]) == nbrs.end()) return false;
    }
  }
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (partner[v] != kUnmatched) continue;
    for (auto u : g.neighbors(v))
      if (partner[u] == kUnmatched) return false;  // both free: not maximal
  }
  return true;
}

}  // namespace pp
