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
  auto order = order_by_priority(priority);
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
  priority_split nbrs;  // earlier neighbors are the leaves of a vertex's TAS tree
  std::vector<uint32_t>& color;
  tas_forest forest;

  tas_coloring_state(const graph& g, std::span<const uint32_t> priority,
                     std::vector<uint32_t>& out, const context& ctx)
      : nbrs(g, priority, ctx), color(out), forest(nbrs.num_earlier(), ctx) {}

  void wake_up(vertex_t v) {
    // All blocking neighbors carry final colors: color greedily.
    color[v] = mex_color(nbrs.earlier(v), color);
    auto ls = nbrs.later(v);
    parallel_for(0, ls.size(), [&](size_t j) {
      vertex_t w = ls[j];
      if (forest.mark(w, nbrs.leaf_of(w, v))) wake_up(w);
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
  tas_coloring_state st(g, priority, res.color, ctx);

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
