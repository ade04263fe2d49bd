// Augmented 2D range tree over a static point set, represented with nested
// arrays (Sec. 2 + Appendix A; Sec. 6.4 notes the authors' implementation
// also uses nested arrays for locality).
//
// Points are identified by id 0..n-1; the id is the x-coordinate (the
// points must be given in x order, which is natural for the dominance DP
// problems here: the id is the sequence index). The y-coordinate is given
// as a *rank*: a permutation of 0..n-1 (see compute_y_ranks).
//
// The outer structure is an implicit segment tree over the (power-of-two
// padded) id range. Each outer node stores its points sorted by y rank
// ("nested array") plus an implicit inner segment tree of monoid
// aggregates over that order. This supports
//
//   query_prefix(qx, qy)  — monoid sum over {i : i < qx, yrank(i) < qy},
//                           O(log^2 n);
//   update(id, value)     — replace the leaf aggregate of one point,
//                           O(log^2 n);
//   batch_update(...)     — the same for a batch of b points, deduplicating
//                           shared inner paths: O(b log^2 n) work and
//                           O(log b log n) span. The O(log n) levels own
//                           disjoint segment trees and run concurrently
//                           (one parallel_for, grain sized by a level's
//                           O(b log n) cost); inside a level, a sort of
//                           the b leaf slots, then an in-place climb of
//                           one parallel step per inner level, with no
//                           allocation per step. Inner loops use the
//                           default grain, so a small batch touches each
//                           level sequentially and a large one keeps
//                           polylog span.
//
// The aggregate policy supplies the monoid. Combines receive a pseudo-
// random word so that policies like Algorithm 3's uniformly-random pivot
// candidate (probability proportional to unfinished counts, Lines 14-19 of
// the paper) can be expressed; deterministic policies ignore it.
//
//   struct Agg {
//     using value_type = ...;
//     static value_type identity();
//     static value_type combine(value_type a, value_type b, uint64_t rnd);
//   };
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/api.h"
#include "parallel/primitives.h"
#include "parallel/random.h"
#include "parallel/sort.h"

namespace pp {

// y ranks for a value sequence: rank of each value with ties broken by
// *descending* index. With this tie order, "yrank(j) < yrank(i) and j < i"
// is equivalent to "value(j) strictly less than value(i) and j < i", which
// is exactly the strict dominance the LIS recurrence needs even when the
// input contains duplicates.
template <typename T>
std::vector<uint32_t> compute_y_ranks(std::span<const T> values) {
  size_t n = values.size();
  auto order = sort_indices(n, [&](uint32_t a, uint32_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a > b;  // descending index on equal values
  });
  std::vector<uint32_t> rank(n);
  parallel_for(0, n, [&](size_t r) { rank[order[r]] = static_cast<uint32_t>(r); });
  return rank;
}

template <typename Agg>
class range_tree2d {
 public:
  using value_type = typename Agg::value_type;

  static constexpr uint32_t kTerminalSize = 8;  // scan directly below this

  // `y_ranks` must be a permutation of 0..n-1. `init(id)` provides the
  // initial leaf aggregate of each point. `seed` drives the randomized
  // combines; callers must pass it explicitly (thread ctx.seed down) so a
  // run's context seed governs every random choice in the tree.
  template <typename Init>
  range_tree2d(std::span<const uint32_t> y_ranks, Init init, uint64_t seed)
      : n_(static_cast<uint32_t>(y_ranks.size())), rng_(seed) {
    n_pad_ = std::max<uint32_t>(kTerminalSize, std::bit_ceil(std::max<uint32_t>(n_, 1)));
    log_pad_ = static_cast<uint32_t>(std::countr_zero(n_pad_));
    levels_ = log_pad_ - std::countr_zero(kTerminalSize);  // node sizes n_pad .. 2*kTerminalSize

    yrank_.assign(n_pad_, 0);
    leaf_vals_.assign(n_pad_, Agg::identity());
    parallel_for(0, n_pad_, [&](size_t i) {
      // Padding points sort after all real points and keep identity values.
      yrank_[i] = i < n_ ? y_ranks[i] : 0xFFFFFFFFu;
      if (i < n_) leaf_vals_[i] = init(static_cast<uint32_t>(i));
    });

    ysorted_.resize(levels_);
    pos_.resize(levels_);
    seg_.resize(levels_);

    if (levels_ == 0) return;

    // Level 0: all points sorted by y rank. Deeper levels are produced by
    // stable routing of each node's order into its two children (the ids
    // keep their relative y order), O(n) per level.
    std::vector<uint32_t> ids_by_y(n_pad_);  // per level: ids in node-major, y-sorted order
    {
      auto order = sort_indices(n_pad_, [&](uint32_t a, uint32_t b) {
        if (yrank_[a] != yrank_[b]) return yrank_[a] < yrank_[b];
        return a < b;  // pads tie on 0xFFFFFFFF
      });
      ids_by_y = std::move(order);
    }
    std::vector<uint32_t> next(n_pad_);
    for (uint32_t lv = 0; lv < levels_; ++lv) {
      uint32_t m = n_pad_ >> lv;
      ysorted_[lv].assign(n_pad_, 0);
      pos_[lv].assign(n_pad_, 0);
      parallel_for(0, n_pad_, [&](size_t s) {
        uint32_t id = ids_by_y[s];
        ysorted_[lv][s] = yrank_[id];
        pos_[lv][id] = static_cast<uint32_t>(s) - (id & ~(m - 1));
      });
      build_level_segtree(lv);
      if (lv + 1 < levels_) {
        // Stable partition each node's slice into the two child slices.
        uint32_t half = m >> 1;
        uint32_t nodes = n_pad_ / m;
        parallel_for(0, nodes, [&](size_t nd) {
          uint32_t lo = static_cast<uint32_t>(nd) * m;
          uint32_t lw = lo, rw = lo + half;
          for (uint32_t s = lo; s < lo + m; ++s) {
            uint32_t id = ids_by_y[s];
            if ((id & half) == 0) next[lw++] = id;
            else next[rw++] = id;
          }
        }, detail::grain_for_cost(m));
        std::swap(ids_by_y, next);
      }
    }
  }

  uint32_t size() const { return n_; }

  // Monoid sum over {j : j < qx, yrank(j) < qy}. `rnd` seeds the randomized
  // combines of this query.
  value_type query_prefix(uint32_t qx, uint32_t qy, uint64_t rnd = 0) const {
    value_type res = Agg::identity();
    if (qx == 0) return res;
    query_rec(0, 0, std::min(qx, n_), qy, rnd, res);
    return res;
  }

  // Replace the leaf aggregate of one point. O(log^2 n).
  void update(uint32_t id, value_type v, uint64_t rnd = 0) {
    leaf_vals_[id] = v;
    for (uint32_t lv = 0; lv < levels_; ++lv) {
      uint32_t m = n_pad_ >> lv;
      uint32_t base = 2 * (id & ~(m - 1));
      auto* st = seg_[lv].data() + base;
      uint32_t i = m + pos_[lv][id];
      st[i] = v;
      for (i >>= 1; i >= 1; i >>= 1)
        st[i] = Agg::combine(st[2 * i], st[2 * i + 1], hash64(rnd ^ (base + i)));
    }
  }

  // Batch leaf replacement; ids must be distinct. Equivalent to calling
  // update() for each element, but inner paths shared between points are
  // recomputed once. Levels own disjoint segment trees, so they are updated
  // concurrently, split across tasks by their O(b log n) cost each; see
  // update_level for the per-level climb.
  void batch_update(std::span<const uint32_t> ids, std::span<const value_type> vals,
                    uint64_t rnd = 0) {
    size_t b = ids.size();
    if (b == 0) return;
    if (b <= 4) {  // not worth the sort machinery
      for (size_t i = 0; i < b; ++i) update(ids[i], vals[i], rnd);
      return;
    }
    // One context for the whole batch, passed to the level tasks' many
    // small loops explicitly.
    const context& ctx = current_context();
    parallel_for(ctx, 0, b, [&](size_t i) { leaf_vals_[ids[i]] = vals[i]; });
    parallel_for(ctx, 0, levels_, [&](size_t lv) {
      update_level(ctx, static_cast<uint32_t>(lv), ids, vals, rnd);
    }, detail::grain_for_cost(b * log_pad_));
  }

  // Current leaf aggregate of a point.
  const value_type& leaf_value(uint32_t id) const { return leaf_vals_[id]; }

  uint32_t y_rank(uint32_t id) const { return yrank_[id]; }

  // Test hook: O(n log n) full recomputation check of every inner segtree
  // node (ignores the random word, so only meaningful for policies whose
  // combine is rnd-insensitive on the checked fields).
  template <typename Eq>
  bool check_aggregates(Eq eq) const {
    for (uint32_t lv = 0; lv < levels_; ++lv) {
      uint32_t m = n_pad_ >> lv;
      for (uint32_t lo = 0; lo < n_pad_; lo += m) {
        const auto* st = seg_[lv].data() + 2 * lo;
        for (uint32_t i = m - 1; i >= 1; --i) {
          value_type expect = Agg::combine(st[2 * i], st[2 * i + 1], 0);
          if (!eq(st[i], expect)) return false;
        }
      }
    }
    return true;
  }

 private:
  void build_level_segtree(uint32_t lv) {
    uint32_t m = n_pad_ >> lv;
    seg_[lv].assign(2 * n_pad_, Agg::identity());
    uint32_t nodes = n_pad_ / m;
    // Leaves: the lv-level y-sorted order maps slot s -> id via pos_ inverse;
    // easier: fill from each id's known slot.
    parallel_for(0, n_pad_, [&](size_t id) {
      uint32_t lo = static_cast<uint32_t>(id) & ~(m - 1);
      seg_[lv][2 * lo + m + pos_[lv][id]] = leaf_vals_[id];
    });
    parallel_for(0, nodes, [&](size_t nd) {
      uint32_t base = 2 * (static_cast<uint32_t>(nd) * m);
      auto* st = seg_[lv].data() + base;
      for (uint32_t i = m - 1; i >= 1; --i)
        st[i] = Agg::combine(st[2 * i], st[2 * i + 1], hash64(rng_ ^ (base + i)));
    }, detail::grain_for_cost(m));
  }

  // One level of batch_update: write the batch's leaves into the level's
  // segment trees, sort their absolute slots, then climb one inner level
  // per step. `cur` holds the sorted slots of the current inner level and
  // `up` receives their parents; the parent map is monotone, so points
  // sharing a parent stay adjacent and only the first of each run
  // recomputes it. Both buffers are allocated once per level: O(b log n)
  // work and O(log b log n) span per level (the sort plus one parallel
  // step per inner level).
  void update_level(const context& ctx, uint32_t lv, std::span<const uint32_t> ids,
                    std::span<const value_type> vals, uint64_t rnd) {
    uint32_t m = n_pad_ >> lv;
    uint32_t mask = 2 * m - 1;  // abs & mask: slot inside the node's segtree
    auto* st = seg_[lv].data();
    size_t b = ids.size();
    std::vector<uint32_t> cur(b), up(b);
    parallel_for(ctx, 0, b, [&](size_t i) {
      uint32_t id = ids[i];
      uint32_t abs = 2 * (id & ~(m - 1)) + m + pos_[lv][id];
      st[abs] = vals[i];
      cur[i] = abs;
    });
    sort_inplace(std::span<uint32_t>(cur));
    auto parent = [mask](uint32_t abs) { return (abs & ~mask) + ((abs & mask) >> 1); };
    while ((cur[0] & mask) > 1) {
      parallel_for(ctx, 0, b, [&](size_t i) {
        uint32_t p = parent(cur[i]);
        up[i] = p;
        if (i > 0 && parent(cur[i - 1]) == p) return;
        uint32_t base = p & ~mask, rel = p & mask;
        st[p] = Agg::combine(st[base + 2 * rel], st[base + 2 * rel + 1],
                             hash64(rnd ^ p ^ (uint64_t{lv} << 32)));
      });
      std::swap(cur, up);
    }
  }

  // Monoid sum of the first `cnt_y` smallest-y points of the node at
  // (level, lo), where cnt_y = #points with yrank < qy.
  void node_prefix(uint32_t lv, uint32_t lo, uint32_t qy, uint64_t rnd, value_type& res) const {
    uint32_t m = n_pad_ >> lv;
    const uint32_t* ys = ysorted_[lv].data() + lo;
    uint32_t cnt = static_cast<uint32_t>(std::lower_bound(ys, ys + m, qy) - ys);
    if (cnt == 0) return;
    const auto* st = seg_[lv].data() + 2 * lo;
    uint32_t l = m, r = m + cnt;
    uint64_t salt = rnd ^ (uint64_t{lo} << 20) ^ lv;
    uint32_t step = 0;
    while (l < r) {
      if (l & 1) res = Agg::combine(res, st[l++], hash64(salt + ++step));
      if (r & 1) res = Agg::combine(res, st[--r], hash64(salt + ++step));
      l >>= 1;
      r >>= 1;
    }
  }

  void query_rec(uint32_t lv, uint32_t lo, uint32_t qx, uint32_t qy, uint64_t rnd,
                 value_type& res) const {
    if (qx <= lo) return;
    uint32_t m = n_pad_ >> lv;
    if (lv == levels_) {  // terminal: scan at most kTerminalSize points
      uint32_t hi = std::min(lo + m, qx);
      for (uint32_t id = lo; id < hi; ++id)
        if (yrank_[id] < qy)
          res = Agg::combine(res, leaf_vals_[id], hash64(rnd ^ (0xABCDu + id)));
      return;
    }
    if (qx >= lo + m) {
      node_prefix(lv, lo, qy, rnd, res);
      return;
    }
    query_rec(lv + 1, lo, qx, qy, rnd, res);
    query_rec(lv + 1, lo + m / 2, qx, qy, rnd, res);
  }

  uint32_t n_;
  uint32_t n_pad_;
  uint32_t log_pad_;
  uint32_t levels_;
  uint64_t rng_;
  std::vector<uint32_t> yrank_;
  std::vector<value_type> leaf_vals_;
  std::vector<std::vector<uint32_t>> ysorted_;  // [level][slot]
  std::vector<std::vector<uint32_t>> pos_;      // [level][id] -> slot within node
  std::vector<std::vector<value_type>> seg_;    // [level][2 * n_pad]
};

}  // namespace pp
