// Per-pivot buckets: the T_pivot structure of the Type-2 wake-up strategy
// (Algorithms 2–3, Lemma 5.1). An object sleeps on a pivot; when the pivot
// finishes, its sleepers are woken. Pivots and objects are dense ids, so the
// buckets are intrusive lists over two flat arrays: head[pivot] is the last
// object inserted under it and next[obj] the one before, kNil ending a list.
//
// Work: O(1) per insert, plus O(b log b) per extracted bucket of size b
// (the list walk and an ascending sort). Span: a list is walked
// sequentially, so an extraction adds O(max bucket) span to its round on
// top of the O(log n) of its loops and scan.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/primitives.h"
#include "parallel/sort.h"

namespace pp {

class pivot_buckets {
 public:
  // Empty buckets for pivots and objects in [0, n).
  explicit pivot_buckets(size_t n) : head_(n), next_(n) {
    parallel_for(0, n, [&](size_t p) { head_[p].store(kNil, std::memory_order_relaxed); });
  }

  // Put `obj` to sleep on `pivot`. An object is in at most one bucket at a
  // time; inserts of distinct objects may run concurrently, and the join of
  // the loop that runs them orders them before any extract.
  void insert(uint32_t pivot, uint32_t obj) {
    next_[obj] = head_[pivot].exchange(obj, std::memory_order_relaxed);
  }

  // Empty the buckets of `pivots` (unique) into `out`: bucket by bucket in
  // the order of `pivots`, each ascending by object. `off` is scratch (the
  // bucket offsets); both are the caller's, so a round loop reuses them.
  void extract(std::span<const uint32_t> pivots, std::vector<uint32_t>& out,
               std::vector<uint32_t>& off) {
    size_t k = pivots.size();
    off.assign(k + 1, 0);
    parallel_for(0, k, [&](size_t i) {
      for (uint32_t o = head_[pivots[i]].load(std::memory_order_relaxed); o != kNil; o = next_[o])
        ++off[i];
    });
    size_t total = scan_exclusive_add(std::span<uint32_t>(off));
    out.resize(total);
    parallel_for(0, k, [&](size_t i) {
      uint32_t j = off[i];
      for (uint32_t o = head_[pivots[i]].load(std::memory_order_relaxed); o != kNil; o = next_[o])
        out[j++] = o;
      head_[pivots[i]].store(kNil, std::memory_order_relaxed);
      sort_inplace(std::span<uint32_t>(out.data() + off[i], j - off[i]));
    }, detail::grain_for_cost(k == 0 ? 1 : total / k));  // cost: the average bucket
  }

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;
  std::vector<std::atomic<uint32_t>> head_;
  std::vector<uint32_t> next_;
};

}  // namespace pp
