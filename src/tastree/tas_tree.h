// TAS trees (Sec. 5.3, Fig. 4): per-object complete binary trees of
// test_and_set flags that detect, fully asynchronously, the moment the
// *last* predecessor of an object finishes.
//
// Semantics per the paper: marking a leaf propagates one flag up the tree.
// A successful TAS on a parent means the sibling subtree is not fully
// finished yet — stop. A failed TAS means the sibling already completed —
// continue upward. A failed TAS at the root means every leaf is marked:
// exactly one marker per tree observes this, and that caller wakes the
// object up. Total work over a tree with m leaves is O(m) (each internal
// node sees at most two TAS attempts); each mark costs O(log m) span.
//
// All trees of an algorithm instance are packed into one arena
// (`tas_forest`), with the standard implicit-heap layout per tree: for a
// tree with m leaves, slots 1..m-1 are internal nodes and slots m..2m-1 are
// leaves; parent(i) = i/2; slot 1 is the root.
//
// For the graph algorithms (MIS, coloring) v's predecessors are its
// earlier-priority neighbors, and `priority_split` supplies the leaves: leaf
// k of v's tree is v's k-th earlier neighbor in id order. A TAS tree needs
// only some bijection from predecessors to leaves, so id order serves, and
// the split is one pass over each adjacency list instead of a sort by
// priority.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "parallel/api.h"
#include "parallel/primitives.h"

namespace pp {

class tas_forest {
 public:
  // leaf_counts[v] = number of predecessors of object v. The arena is
  // built under `ctx` (the TAS flags themselves are deterministic — no
  // RNG — but construction forks under the run's backend/width like every
  // other substrate).
  tas_forest(std::span<const uint32_t> leaf_counts, const context& ctx) {
    size_t n = leaf_counts.size();
    offsets_.assign(n + 1, 0);
    parallel_for(ctx, 0, n, [&](size_t v) {
      offsets_[v + 1] = leaf_counts[v] == 0 ? 0 : 2 * static_cast<size_t>(leaf_counts[v]);
    });
    scan_inclusive(std::span<size_t>(offsets_.data() + 1, n), size_t{0}, std::plus<size_t>{});
    leaves_.assign(n, 0);
    parallel_for(ctx, 0, n, [&](size_t v) { leaves_[v] = leaf_counts[v]; });
    flags_ = std::vector<std::atomic<uint8_t>>(offsets_.back());
  }

  size_t num_trees() const { return leaves_.size(); }
  uint32_t num_leaves(uint32_t v) const { return leaves_[v]; }
  bool empty_tree(uint32_t v) const { return leaves_[v] == 0; }

  // Mark leaf `leaf` (0-based) of tree `v`. Returns true iff this mark
  // completed the tree — i.e. the caller is the unique observer of "all
  // leaves of v are marked" and must wake v up.
  bool mark(uint32_t v, uint32_t leaf) {
    uint32_t m = leaves_[v];
    std::atomic<uint8_t>* t = flags_.data() + offsets_[v];
    uint32_t i = m + leaf;
    t[i].store(1, std::memory_order_release);  // leaf flag, for introspection
    if (m == 1) return true;                   // single predecessor: done now
    // climb: TAS each ancestor; success => sibling subtree pending => stop
    for (i >>= 1;; i >>= 1) {
      if (t[i].exchange(1, std::memory_order_acq_rel) == 0) return false;  // TAS success
      if (i == 1) return true;  // failed TAS at the root: all leaves marked
    }
  }

  // Test hooks.
  bool leaf_marked(uint32_t v, uint32_t leaf) const {
    return flags_[offsets_[v] + leaves_[v] + leaf].load(std::memory_order_acquire) != 0;
  }
  bool root_flag(uint32_t v) const {
    if (leaves_[v] < 2) return false;
    return flags_[offsets_[v] + 1].load(std::memory_order_acquire) != 0;
  }

 private:
  std::vector<size_t> offsets_;            // per-tree slot ranges (2*m slots each)
  std::vector<uint32_t> leaves_;           // per-tree leaf counts
  std::vector<std::atomic<uint8_t>> flags_;  // the forest arena
};

// Each vertex's neighbors split by priority (smaller = earlier): first the
// earlier ones in ascending id order, then the later ones in descending id
// order. One pass over each id-sorted CSR list, O(m) work in all; the
// split shares g's offsets, so g must outlive it.
class priority_split {
 public:
  priority_split(const graph& g, std::span<const uint32_t> priority, const context& ctx)
      : off_(g.offsets()), adj_(g.num_directed_edges()), num_earlier_(g.num_vertices()) {
    parallel_for(ctx, 0, g.num_vertices(), [&](size_t v) {
      auto nbrs = g.neighbors(static_cast<vertex_t>(v));
      assert(std::is_sorted(nbrs.begin(), nbrs.end()) && "CSR neighbor lists are id-sorted");
      uint32_t pv = priority[v];
      vertex_t* front = adj_.data() + off_[v];
      vertex_t* back = adj_.data() + off_[v + 1];
      for (auto u : nbrs) {
        if (priority[u] < pv) *front++ = u;
        else *--back = u;
      }
      num_earlier_[v] = static_cast<uint32_t>(front - (adj_.data() + off_[v]));
    });
  }

  std::span<const vertex_t> earlier(vertex_t v) const {
    return {adj_.data() + off_[v], num_earlier_[v]};
  }
  std::span<const vertex_t> later(vertex_t v) const {
    return {adj_.data() + off_[v] + num_earlier_[v], adj_.data() + off_[v + 1]};
  }
  // Per-vertex earlier-neighbor counts: the leaf counts of the TAS forest.
  std::span<const uint32_t> num_earlier() const { return num_earlier_; }

  // Leaf of earlier neighbor u in v's TAS tree: u's rank in earlier(v).
  uint32_t leaf_of(vertex_t v, vertex_t u) const {
    auto e = earlier(v);
    auto it = std::lower_bound(e.begin(), e.end(), u);
    assert(it != e.end() && *it == u && "u must be an earlier neighbor of v");
    return static_cast<uint32_t>(it - e.begin());
  }

 private:
  std::span<const size_t> off_;
  std::vector<vertex_t> adj_;
  std::vector<uint32_t> num_earlier_;
};

}  // namespace pp
