// Graph substrate: CSR adjacency for unweighted (undirected) and weighted
// (directed) graphs, and a builder from edge lists.
#pragma once

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
  friend bool operator<(const edge& a, const edge& b) {
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  }
  friend bool operator==(const edge& a, const edge& b) { return a.u == b.u && a.v == b.v; }
};

// Undirected simple graph in CSR form. Each undirected edge {u,v} appears
// as both (u,v) and (v,u) in the adjacency; neighbor lists are sorted.
class graph {
 public:
  graph() = default;

  // Build from an undirected edge list; self-loops and duplicates are
  // removed, and both directions are materialized.
  static graph from_edges(vertex_t n, std::vector<edge> edges) {
    // symmetrize
    size_t m = edges.size();
    std::vector<edge> dir(2 * m);
    parallel_for(0, m, [&](size_t i) {
      dir[2 * i] = edges[i];
      dir[2 * i + 1] = {edges[i].v, edges[i].u};
    });
    // sort, drop self-loops + duplicates
    sort_inplace(std::span<edge>(dir));
    auto keep = pack(std::span<const edge>(dir), [&](size_t i) {
      if (dir[i].u == dir[i].v) return false;
      return i == 0 || !(dir[i] == dir[i - 1]);
    });
    graph g;
    g.n_ = n;
    g.offsets_.assign(n + 1, 0);
    g.adj_.resize(keep.size());
    parallel_for(0, keep.size(), [&](size_t i) { g.adj_[i] = keep[i].v; });
    // offsets: count per source
    std::vector<size_t> deg(n, 0);
    for (auto& e : keep) deg[e.u]++;  // serial: cheap vs the sort above
    for (vertex_t v = 0; v < n; ++v) g.offsets_[v + 1] = g.offsets_[v] + deg[v];
    return g;
  }

  vertex_t num_vertices() const { return n_; }
  size_t num_directed_edges() const { return adj_.size(); }
  size_t num_edges() const { return adj_.size() / 2; }

  std::span<const vertex_t> neighbors(vertex_t v) const {
    return std::span<const vertex_t>(adj_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]);
  }
  size_t degree(vertex_t v) const { return offsets_[v + 1] - offsets_[v]; }
  // v's neighbors occupy adjacency slots [offsets()[v], offsets()[v + 1]).
  std::span<const size_t> offsets() const { return offsets_; }
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

  static wgraph from_edges(vertex_t n, std::vector<wedge> edges) {
    sort_inplace(std::span<wedge>(edges), [](const wedge& a, const wedge& b) {
      if (a.u != b.u) return a.u < b.u;
      return a.v < b.v;
    });
    wgraph g;
    g.n_ = n;
    g.offsets_.assign(n + 1, 0);
    g.adj_.resize(edges.size());
    g.wts_.resize(edges.size());
    parallel_for(0, edges.size(), [&](size_t i) {
      g.adj_[i] = edges[i].v;
      g.wts_[i] = edges[i].w;
    });
    std::vector<size_t> deg(n, 0);
    for (auto& e : edges) deg[e.u]++;
    for (vertex_t v = 0; v < n; ++v) g.offsets_[v + 1] = g.offsets_[v] + deg[v];
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
