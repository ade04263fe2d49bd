#include "algos/mis.h"

#include <atomic>
#include <cassert>

#include "core/cancel.h"
#include "parallel/api.h"
#include "parallel/primitives.h"
#include "parallel/sort.h"
#include "tastree/tas_tree.h"

namespace pp {

mis_result mis_sequential(const graph& g, std::span<const uint32_t> priority,
                          const context& ctx) {
  run_scope scope(ctx);
  vertex_t n = g.num_vertices();
  mis_result res;
  res.in_mis.assign(n, 0);
  auto order = sort_indices(n, [&](uint32_t a, uint32_t b) { return priority[a] < priority[b]; });
  std::vector<uint8_t> removed(n, 0);
  for (auto v : order) {
    if (removed[v]) continue;
    res.in_mis[v] = 1;
    res.mis_size++;
    for (auto u : g.neighbors(v)) removed[u] = 1;
  }
  return res;
}

mis_result mis_rounds(const graph& g, std::span<const uint32_t> priority, const context& ctx) {
  run_scope scope(ctx);
  vertex_t n = g.num_vertices();
  mis_result res;
  res.in_mis.assign(n, 0);
  // 0 = undecided, 1 = selected, 2 = removed
  std::vector<std::atomic<uint8_t>> status(n);
  auto undecided = tabulate<vertex_t>(n, [](size_t i) { return static_cast<vertex_t>(i); });
  while (!undecided.empty()) {
    cancel_point();  // between selection rounds: quiescent, cancellable
    res.stats.record_frontier(undecided.size());
    // Select every undecided vertex whose priority beats all undecided
    // neighbors (= the ready set of the dependence graph).
    auto ready = pack(std::span<const vertex_t>(undecided), [&](size_t i) {
      vertex_t v = undecided[i];
      for (auto u : g.neighbors(v))
        if (status[u].load(std::memory_order_relaxed) == 0 && priority[u] < priority[v])
          return false;
      return true;
    });
    parallel_for(0, ready.size(), [&](size_t i) {
      status[ready[i]].store(1, std::memory_order_relaxed);
    });
    parallel_for(0, ready.size(), [&](size_t i) {
      for (auto u : g.neighbors(ready[i])) {
        uint8_t expect = 0;
        status[u].compare_exchange_strong(expect, 2, std::memory_order_relaxed);
      }
    });
    undecided = pack(std::span<const vertex_t>(undecided), [&](size_t i) {
      return status[undecided[i]].load(std::memory_order_relaxed) == 0;
    });
  }
  parallel_for(0, n, [&](size_t v) {
    res.in_mis[v] = status[v].load(std::memory_order_relaxed) == 1;
  });
  for (vertex_t v = 0; v < n; ++v) res.mis_size += res.in_mis[v];
  return res;
}

namespace {

// Shared state of the asynchronous Algorithm 4.
struct tas_mis_state {
  priority_split nbrs;  // earlier neighbors are the leaves of a vertex's TAS tree
  std::vector<std::atomic<uint8_t>> status;  // 0 undecided, 1 selected, 2 removed
  tas_forest forest;
  std::atomic<size_t> max_depth{0};  // recursion depth proxy for the span claim

  tas_mis_state(const graph& g, std::span<const uint32_t> priority, const context& ctx)
      : nbrs(g, priority, ctx), status(g.num_vertices()), forest(nbrs.num_earlier(), ctx) {}

  void wake_up(vertex_t v, size_t depth);
  void remove_vertex(vertex_t u, size_t depth);
};

void tas_mis_state::remove_vertex(vertex_t u, size_t depth) {
  // Notify every TAS tree containing u (= later-priority neighbors).
  auto ls = nbrs.later(u);
  parallel_for(0, ls.size(), [&](size_t j) {
    vertex_t w = ls[j];
    if (status[w].load(std::memory_order_acquire) == 2) return;  // already removed (Line 13)
    if (forest.mark(w, nbrs.leaf_of(w, u))) wake_up(w, depth + 1);
  }, /*grain=*/32);
}

void tas_mis_state::wake_up(vertex_t v, size_t depth) {
  // v's blocking neighbors are all unavailable and v was never removed,
  // so v joins the MIS (see header: a later neighbor cannot be selected
  // before v is decided). Its earlier neighbors are all removed already,
  // so only the later ones can still be taken.
  uint8_t expect = 0;
  bool won = status[v].compare_exchange_strong(expect, 1, std::memory_order_acq_rel);
  assert(won && "a ready vertex must still be undecided");
  (void)won;
  write_max(&max_depth, depth);
  auto ls = nbrs.later(v);
  parallel_for(0, ls.size(), [&](size_t j) {
    vertex_t u = ls[j];
    uint8_t e = 0;
    // Test before the CAS: a neighbor another vertex removed costs a load.
    if (status[u].load(std::memory_order_relaxed) == 0 &&
        status[u].compare_exchange_strong(e, 2, std::memory_order_acq_rel)) {
      remove_vertex(u, depth + 1);  // first remover propagates
    }
  }, /*grain=*/32);
}

}  // namespace

mis_result mis_tas(const graph& g, std::span<const uint32_t> priority, const context& ctx) {
  run_scope scope(ctx);
  vertex_t n = g.num_vertices();
  tas_mis_state st(g, priority, ctx);

  // Kick off every vertex with no blocking neighbors (Lines 5-6).
  parallel_for(0, n, [&](size_t v) {
    if (st.forest.empty_tree(static_cast<vertex_t>(v)))
      st.wake_up(static_cast<vertex_t>(v), 1);
  }, /*grain=*/128);

  mis_result res;
  res.in_mis.assign(n, 0);
  parallel_for(0, n, [&](size_t v) {
    res.in_mis[v] = st.status[v].load(std::memory_order_relaxed) == 1;
  });
  for (vertex_t v = 0; v < n; ++v) res.mis_size += res.in_mis[v];
  res.stats.substeps = st.max_depth.load();  // wake-chain depth proxy
  return res;
}

bool is_maximal_independent_set(const graph& g, std::span<const uint8_t> in_mis) {
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    bool has_selected_neighbor = false;
    for (auto u : g.neighbors(v)) {
      if (in_mis[u] && in_mis[v]) return false;  // not independent
      has_selected_neighbor |= in_mis[u] != 0;
    }
    if (!in_mis[v] && !has_selected_neighbor) return false;  // not maximal
  }
  return true;
}

}  // namespace pp
