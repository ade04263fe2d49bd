// Graph substrate: CSR adjacency for unweighted (undirected) and weighted
// (directed) graphs, and a builder from edge lists.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "parallel/api.h"
#include "parallel/primitives.h"
#include "parallel/sort.h"

namespace pp {

using vertex_t = uint32_t;

struct edge {
  vertex_t u;
  vertex_t v;
};

// Undirected simple graph in CSR form. Each undirected edge {u,v} appears
// as both (u,v) and (v,u) in the adjacency; neighbor lists are sorted.
class graph {
 public:
  graph() = default;

  // Build from an undirected edge list; self-loops and duplicates are
  // removed, and both directions are materialized. O(n + m) work, no
  // comparison sort: each non-loop edge's two ends are scattered into their
  // endpoints' runs, then the runs are transposed (v goes into the run of
  // every u in v's run, for v in increasing order). The adjacency is
  // symmetric, so the transposed runs hold the same neighbours, now in
  // increasing order; duplicates sit side by side and are dropped. The
  // transpose has n items for n buckets, so bucket_scatter runs it as one
  // block: O(m) span there, against O(m / workers) for the first scatter.
  static graph from_edges(vertex_t n, std::vector<edge> edges) {
    auto [runs, nbrs] = bucket_scatter<vertex_t>(edges.size(), n, [&](size_t i, auto put) {
      auto [u, v] = edges[i];
      if (u == v) return;
      put(u, v);
      put(v, u);
    });
    edges = {};  // free each input before the next array is allocated
    auto [sorted_runs, sorted] = bucket_scatter<vertex_t>(n, n, [&](size_t v, auto put) {
      for (size_t k = runs[v]; k < runs[v + 1]; ++k) put(nbrs[k], static_cast<vertex_t>(v));
    });
    nbrs = {};
    graph g;
    g.n_ = n;
    g.offsets_.assign(static_cast<size_t>(n) + 1, 0);
    size_t grain = detail::grain_for_cost(sorted.size() / std::max<size_t>(1, n) + 1);
    parallel_for(0, n, [&](size_t v) {
      auto first = sorted.begin() + sorted_runs[v], last = sorted.begin() + sorted_runs[v + 1];
      g.offsets_[v] = static_cast<size_t>(std::unique(first, last) - first);
    }, grain);
    g.adj_.resize(scan_exclusive_add(std::span<size_t>(g.offsets_)));
    parallel_for(0, n, [&](size_t v) {
      std::copy_n(sorted.begin() + sorted_runs[v], g.degree(static_cast<vertex_t>(v)),
                  g.adj_.begin() + g.offsets_[v]);
    }, grain);
    return g;
  }

  vertex_t num_vertices() const { return n_; }
  size_t num_directed_edges() const { return adj_.size(); }
  size_t num_edges() const { return adj_.size() / 2; }

  std::span<const vertex_t> neighbors(vertex_t v) const {
    return std::span<const vertex_t>(adj_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]);
  }
  size_t degree(vertex_t v) const { return offsets_[v + 1] - offsets_[v]; }
  // v's neighbors occupy adj() slots [offsets()[v], offsets()[v + 1]).
  std::span<const size_t> offsets() const { return offsets_; }
  std::span<const vertex_t> adj() const { return adj_; }
  vertex_t max_degree() const {
    vertex_t d = 0;
    for (vertex_t v = 0; v < n_; ++v) d = std::max<vertex_t>(d, static_cast<vertex_t>(degree(v)));
    return d;
  }

 private:
  vertex_t n_ = 0;
  std::vector<size_t> offsets_;
  std::vector<vertex_t> adj_;
};

// Weighted directed graph in CSR form (used by SSSP). Positive integer
// weights.
class wgraph {
 public:
  struct wedge {
    vertex_t u;
    vertex_t v;
    uint32_t w;
  };

  wgraph() = default;

  // Build from a directed edge list, keeping duplicate (u, v) pairs: the
  // runs hold the edges stably sorted by (u, v), so duplicates keep their
  // input order.
  static wgraph from_edges(vertex_t n, std::vector<wedge> edges) {
    sort_inplace(std::span<wedge>(edges), [](const wedge& a, const wedge& b) {
      if (a.u != b.u) return a.u < b.u;
      return a.v < b.v;
    });
    wgraph g;
    g.n_ = n;
    g.offsets_.assign(static_cast<size_t>(n) + 1, 0);
    g.adj_.resize(edges.size());
    g.wts_.resize(edges.size());
    parallel_for(0, edges.size(), [&](size_t i) {
      g.adj_[i] = edges[i].v;
      g.wts_[i] = edges[i].w;
    });
    for (auto& e : edges) g.offsets_[e.u + 1]++;
    for (vertex_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
    return g;
  }

  // Adopt prebuilt CSR arrays: offsets.size() == n + 1, monotone, with
  // adj/wts of size offsets[n] holding per-vertex neighbor runs sorted by
  // target and deduplicated. The arrays keep their capacity. The session
  // store (src/serve/session.cpp) builds every version this way: version 0
  // in one pass over its input's CSR, and each later version by merging its
  // parent's CSR with a resolved delta into arrays that release() handed
  // back from a retired version.
  static wgraph from_csr(vertex_t n, std::vector<size_t> offsets, std::vector<vertex_t> adj,
                         std::vector<uint32_t> wts) {
    wgraph g;
    g.n_ = n;
    g.offsets_ = std::move(offsets);
    g.adj_ = std::move(adj);
    g.wts_ = std::move(wts);
    return g;
  }

  // Hand the CSR arrays (and their capacity) back, leaving an empty graph.
  void release(std::vector<size_t>& offsets, std::vector<vertex_t>& adj,
               std::vector<uint32_t>& wts) && {
    offsets = std::move(offsets_);
    adj = std::move(adj_);
    wts = std::move(wts_);
    *this = wgraph();
  }

  vertex_t num_vertices() const { return n_; }
  size_t num_edges() const { return adj_.size(); }

  std::span<const vertex_t> out_neighbors(vertex_t v) const {
    return std::span<const vertex_t>(adj_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]);
  }
  std::span<const uint32_t> out_weights(vertex_t v) const {
    return std::span<const uint32_t>(wts_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]);
  }
  size_t out_degree(vertex_t v) const { return offsets_[v + 1] - offsets_[v]; }
  // The raw CSR: v's run is adj()/wts() slots [offsets()[v], offsets()[v + 1]).
  std::span<const size_t> offsets() const { return offsets_; }
  std::span<const vertex_t> adj() const { return adj_; }
  std::span<const uint32_t> wts() const { return wts_; }

  uint32_t min_weight() const {
    uint32_t w = ~0u;
    for (auto x : wts_) w = std::min(w, x);
    return w;
  }
  uint32_t max_weight() const {
    uint32_t w = 0;
    for (auto x : wts_) w = std::max(w, x);
    return w;
  }

 private:
  vertex_t n_ = 0;
  std::vector<size_t> offsets_;
  std::vector<vertex_t> adj_;
  std::vector<uint32_t> wts_;
};

}  // namespace pp
