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
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

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
    parallel_for(ctx, 0, flags_.size(), [&](size_t i) {
      flags_[i].store(0, std::memory_order_relaxed);
    });
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

}  // namespace pp
