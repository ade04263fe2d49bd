#include "algos/coloring.h"

#include <algorithm>
#include <atomic>

#include "parallel/api.h"
#include "parallel/primitives.h"
#include "parallel/sort.h"
#include "tastree/tas_tree.h"

namespace pp {

namespace {

constexpr uint32_t kUncolored = 0xFFFFFFFFu;

// Smallest color not used by the blocking (earlier) neighbors of v.
uint32_t mex_color(std::span<const vertex_t> blocking, std::span<const uint32_t> color) {
  // Blocking lists are small on average; a bitmap of size deg+1 suffices
  // (mex of k values is <= k).
  std::vector<uint8_t> used(blocking.size() + 1, 0);
  for (auto u : blocking) {
    uint32_t c = color[u];
    if (c < used.size()) used[c] = 1;
  }
  uint32_t c = 0;
  while (used[c]) ++c;
  return c;
}

}  // namespace

coloring_result coloring_sequential(const graph& g, std::span<const uint32_t> priority,
                                    const context& ctx) {
  run_scope scope(ctx);
  vertex_t n = g.num_vertices();
  coloring_result res;
  res.color.assign(n, kUncolored);
  auto order = sort_indices(n, [&](uint32_t a, uint32_t b) { return priority[a] < priority[b]; });
  std::vector<vertex_t> colored_nbrs;
  for (auto v : order) {
    colored_nbrs.clear();
    for (auto u : g.neighbors(v))
      if (res.color[u] != kUncolored) colored_nbrs.push_back(u);
    res.color[v] = mex_color(colored_nbrs, res.color);
  }
  for (auto c : res.color) res.num_colors = std::max(res.num_colors, c + 1);
  return res;
}

namespace {

struct tas_coloring_state {
  const graph& g;
  std::span<const uint32_t> priority;
  std::vector<vertex_t> sorted_adj;  // per vertex, sorted by priority
  std::vector<size_t> adj_off;
  std::vector<uint32_t> num_blocking;
  std::vector<uint32_t>& color;
  tas_forest forest;

  std::span<const vertex_t> blocking(vertex_t v) const {
    return std::span<const vertex_t>(sorted_adj.data() + adj_off[v], num_blocking[v]);
  }
  std::span<const vertex_t> later(vertex_t v) const {
    return std::span<const vertex_t>(sorted_adj.data() + adj_off[v] + num_blocking[v],
                                     (adj_off[v + 1] - adj_off[v]) - num_blocking[v]);
  }

  uint32_t leaf_of(vertex_t v, vertex_t u) const {
    auto b = blocking(v);
    uint32_t pu = priority[u];
    size_t lo = 0, hi = b.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (priority[b[mid]] < pu) lo = mid + 1;
      else hi = mid;
    }
    return static_cast<uint32_t>(lo);
  }

  void wake_up(vertex_t v) {
    // All blocking neighbors carry final colors: color greedily.
    color[v] = mex_color(blocking(v), color);
    auto ls = later(v);
    parallel_for(0, ls.size(), [&](size_t j) {
      vertex_t w = ls[j];
      if (forest.mark(w, leaf_of(w, v))) wake_up(w);
    }, /*grain=*/32);
  }
};

}  // namespace

coloring_result coloring_tas(const graph& g, std::span<const uint32_t> priority,
                             const context& ctx) {
  run_scope scope(ctx);
  vertex_t n = g.num_vertices();
  coloring_result res;
  res.color.assign(n, kUncolored);

  std::vector<size_t> off(n + 1, 0);
  for (vertex_t v = 0; v < n; ++v) off[v + 1] = off[v] + g.degree(v);
  std::vector<vertex_t> sadj(off[n]);
  std::vector<uint32_t> nblock(n);
  parallel_for(0, n, [&](size_t v) {
    auto nbrs = g.neighbors(static_cast<vertex_t>(v));
    std::copy(nbrs.begin(), nbrs.end(), sadj.begin() + off[v]);
    std::sort(sadj.begin() + off[v], sadj.begin() + off[v + 1],
              [&](vertex_t a, vertex_t b) { return priority[a] < priority[b]; });
    uint32_t pv = priority[v];
    uint32_t b = 0;
    while (b < nbrs.size() && priority[sadj[off[v] + b]] < pv) ++b;
    nblock[v] = b;
  });

  tas_forest forest{std::span<const uint32_t>(nblock), ctx};  // before nblock is moved
  tas_coloring_state st{g,          priority,        std::move(sadj), std::move(off),
                        std::move(nblock), res.color, std::move(forest)};

  parallel_for(0, n, [&](size_t v) {
    if (st.forest.empty_tree(static_cast<vertex_t>(v))) st.wake_up(static_cast<vertex_t>(v));
  }, /*grain=*/128);

  for (auto c : res.color) res.num_colors = std::max(res.num_colors, c + 1);
  return res;
}

bool is_valid_coloring(const graph& g, std::span<const uint32_t> color) {
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (color[v] == kUncolored) return false;
    for (auto u : g.neighbors(v))
      if (color[u] == color[v]) return false;
  }
  return true;
}

}  // namespace pp
