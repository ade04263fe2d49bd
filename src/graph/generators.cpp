#include "graph/generators.h"

#include "parallel/random.h"

namespace pp {

graph random_graph(vertex_t n, size_t m, uint64_t seed) {
  random_stream rs(seed);
  auto edges = tabulate<edge>(m, [&](size_t i) {
    return edge{static_cast<vertex_t>(rs.ith_bounded(2 * i, n)),
                static_cast<vertex_t>(rs.ith_bounded(2 * i + 1, n))};
  });
  return graph::from_edges(n, std::move(edges));
}

graph rmat_graph(vertex_t n, size_t m, uint64_t seed) {
  // Round n up to a power of two for the quadrant recursion, then reject
  // endpoints >= n (regenerated deterministically via salted retries).
  uint32_t levels = 0;
  while ((1u << levels) < n) ++levels;
  constexpr double a = 0.57, b = 0.19, c = 0.19;  // d = 0.05
  random_stream rs(seed);
  auto gen_edge = [&](uint64_t key) {
    vertex_t u = 0, v = 0;
    for (uint32_t l = 0; l < levels; ++l) {
      // Quadrant q in 0..3 without a branch: its high bit is u's, its low
      // bit v's.
      double r = random_stream(key).ith_double(l);
      uint32_t q = (r >= a) + (r >= a + b) + (r >= a + b + c);
      u = u << 1 | q >> 1;
      v = v << 1 | (q & 1);
    }
    return edge{u, v};
  };
  auto edges = tabulate<edge>(m, [&](size_t i) {
    for (uint64_t attempt = 0;; ++attempt) {
      edge e = gen_edge(rs.ith(i * 64 + attempt));
      if (e.u < n && e.v < n) return e;
    }
  });
  return graph::from_edges(n, std::move(edges));
}

graph grid_graph(vertex_t rows, vertex_t cols) {
  size_t m = static_cast<size_t>(rows) * (cols - 1) + static_cast<size_t>(cols) * (rows - 1);
  std::vector<edge> edges(m);
  auto id = [&](vertex_t r, vertex_t c) { return r * cols + c; };
  size_t horiz = static_cast<size_t>(rows) * (cols - 1);
  parallel_for(0, horiz, [&](size_t i) {
    vertex_t r = static_cast<vertex_t>(i / (cols - 1));
    vertex_t c = static_cast<vertex_t>(i % (cols - 1));
    edges[i] = {id(r, c), id(r, c + 1)};
  });
  parallel_for(0, static_cast<size_t>(cols) * (rows - 1), [&](size_t i) {
    vertex_t c = static_cast<vertex_t>(i / (rows - 1));
    vertex_t r = static_cast<vertex_t>(i % (rows - 1));
    edges[horiz + i] = {id(r, c), id(r + 1, c)};
  });
  return graph::from_edges(static_cast<vertex_t>(rows) * cols, std::move(edges));
}

wgraph add_weights(const graph& g, uint32_t w_min, uint32_t w_max, uint64_t seed) {
  random_stream rs(seed);
  vertex_t n = g.num_vertices();
  // g's runs are sorted and duplicate-free, so its CSR already lists the
  // directed edges in (u, v) order: copy it and weigh each slot. The weight
  // is keyed on the canonical (min,max) endpoint pair so both directions of
  // an undirected edge agree.
  std::vector<size_t> offsets(g.offsets().begin(), g.offsets().end());
  std::vector<vertex_t> adj(g.adj().begin(), g.adj().end());
  std::vector<uint32_t> wts(adj.size());
  parallel_for(0, n, [&](size_t v) {
    for (size_t k = offsets[v]; k < offsets[v + 1]; ++k) {
      vertex_t u = static_cast<vertex_t>(v), w = adj[k];
      uint64_t key = std::min(u, w) * (static_cast<uint64_t>(1) << 32) | std::max(u, w);
      wts[k] = static_cast<uint32_t>(
          rs.ith_range(hash64(key), static_cast<int64_t>(w_min), static_cast<int64_t>(w_max)));
    }
  }, detail::grain_for_cost(adj.size() / std::max<size_t>(1, n) + 1));
  return wgraph::from_csr(n, std::move(offsets), std::move(adj), std::move(wts));
}

}  // namespace pp
