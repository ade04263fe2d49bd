// Parallel sorting: stable merge sort with a parallel merge (O(n log n)
// work, O(log^2 n) span for the merge tree — polylog span overall), plus a
// stable O(n + buckets) bucket scatter for integer keys, which
// graph::from_edges and random_permutation use in place of a comparison
// sort, and the O(n) inverse of a priority permutation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "parallel/api.h"
#include "parallel/primitives.h"

namespace pp {

namespace detail {

constexpr size_t kSortBase = 1 << 13;  // below this, std::stable_sort / std::merge

// Merge sorted a and b into out (stable: ties prefer a). Parallel via
// dual binary search splitting.
template <typename T, typename Less>
void parallel_merge(std::span<const T> a, std::span<const T> b, std::span<T> out, Less less) {
  while (true) {
    if (a.size() + b.size() <= kSortBase) {
      std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin(), less);
      return;
    }
    if (a.size() < b.size()) {
      // keep `a` the larger side; swap roles but preserve stability:
      // elements of b equal to an element of a must come after it, i.e.
      // when splitting on a b-pivot, equal a-elements go left.
      size_t mb = b.size() / 2;
      // a-elements strictly less OR equal to b[mb] go left of b[mb]:
      size_t ma = static_cast<size_t>(
          std::upper_bound(a.begin(), a.end(), b[mb], less) - a.begin());
      par_do([=] { parallel_merge(a.subspan(0, ma), b.subspan(0, mb), out.subspan(0, ma + mb), less); },
             [=] {
               out[ma + mb] = b[mb];
               parallel_merge(a.subspan(ma), b.subspan(mb + 1),
                              out.subspan(ma + mb + 1), less);
             });
      return;
    }
    size_t ma = a.size() / 2;
    // b-elements strictly less than a[ma] go left (stability: equals go right).
    size_t mb = static_cast<size_t>(
        std::lower_bound(b.begin(), b.end(), a[ma], less) - b.begin());
    par_do([=] { parallel_merge(a.subspan(0, ma), b.subspan(0, mb), out.subspan(0, ma + mb), less); },
           [=] {
             out[ma + mb] = a[ma];
             parallel_merge(a.subspan(ma + 1), b.subspan(mb),
                            out.subspan(ma + mb + 1), less);
           });
    return;
  }
}

// Sort `in`; result lands in `in` if `result_in_in`, else in `buf`.
template <typename T, typename Less>
void merge_sort_rec(std::span<T> in, std::span<T> buf, Less less, bool result_in_in) {
  if (in.size() <= kSortBase) {
    std::stable_sort(in.begin(), in.end(), less);
    if (!result_in_in) std::copy(in.begin(), in.end(), buf.begin());
    return;
  }
  size_t mid = in.size() / 2;
  par_do([&] { merge_sort_rec(in.subspan(0, mid), buf.subspan(0, mid), less, !result_in_in); },
         [&] { merge_sort_rec(in.subspan(mid), buf.subspan(mid), less, !result_in_in); });
  auto src = result_in_in ? buf : in;
  auto dst = result_in_in ? in : buf;
  parallel_merge(std::span<const T>(src.subspan(0, mid)), std::span<const T>(src.subspan(mid)),
                 dst, less);
}

}  // namespace detail

// Merge two sorted sequences into a new one (stable: ties prefer `a`).
// O(n) work, O(log^2 n) span.
template <typename T, typename Less = std::less<T>>
std::vector<T> merge_sorted(std::span<const T> a, std::span<const T> b, Less less = Less{}) {
  std::vector<T> out(a.size() + b.size());
  detail::parallel_merge(a, b, std::span<T>(out), less);
  return out;
}

// Stable parallel sort in place.
template <typename T, typename Less = std::less<T>>
void sort_inplace(std::span<T> xs, Less less = Less{}) {
  if (xs.size() <= detail::kSortBase) {
    std::stable_sort(xs.begin(), xs.end(), less);
    return;
  }
  std::vector<T> buf(xs.size());
  detail::merge_sort_rec(xs, std::span<T>(buf), less, /*result_in_in=*/true);
}

template <typename T, typename Less = std::less<T>>
std::vector<T> sorted(std::span<const T> xs, Less less = Less{}) {
  std::vector<T> out(xs.begin(), xs.end());
  sort_inplace(std::span<T>(out), less);
  return out;
}

// Indices 0..n-1 sorted by the given comparison on positions (a "rank sort").
template <typename Less>
std::vector<uint32_t> sort_indices(size_t n, Less less_on_index) {
  auto idx = tabulate<uint32_t>(n, [](size_t i) { return static_cast<uint32_t>(i); });
  sort_inplace(std::span<uint32_t>(idx), less_on_index);
  return idx;
}

// Indices 0..n-1 in increasing order of priority[i], for priorities that
// are a permutation of [0, n): the inverse permutation, order[priority[v]]
// = v, in O(n) sequential work. Anything else (a value >= n or a repeat)
// throws std::invalid_argument.
inline std::vector<uint32_t> order_by_priority(std::span<const uint32_t> priority) {
  const size_t n = priority.size();
  constexpr uint32_t kUnset = ~0u;
  std::vector<uint32_t> order(n, kUnset);
  for (size_t v = 0; v < n; ++v) {
    uint32_t p = priority[v];
    if (p >= n || order[p] != kUnset)
      throw std::invalid_argument("pp::order_by_priority: priorities are not a permutation of [0, " +
                                  std::to_string(n) + ")");
    order[p] = static_cast<uint32_t>(v);
  }
  return order;
}

// ---------------------------------------------------------------------------
// Stable parallel bucketing by count, scan and scatter. items(i, put) calls
// put(bucket, value) once for each value item i contributes (any number,
// buckets in [0, num_buckets)); it is called twice per item, so it must be
// pure. Returns the bucket offsets (num_buckets + 1 entries) and the values
// grouped by bucket, each bucket in item order. The items are cut into
// blocks, and each block keeps its own row of bucket counters, so no counter
// is shared and the result does not depend on the schedule. There is one
// block per max(num_buckets, kMinGrain) items, at most one per worker, so
// the counter rows hold at most max(n, num_buckets) entries at any width.
// O(n + num_buckets + values) work; the span is one block's items and
// values plus O(log n). Used to build CSR graphs and random permutations.
// ---------------------------------------------------------------------------
template <typename V, typename Items>
std::pair<std::vector<size_t>, std::vector<V>> bucket_scatter(size_t n, size_t num_buckets,
                                                              Items items) {
  const size_t nblocks = std::clamp<size_t>(
      n / std::max<size_t>(num_buckets, detail::kMinGrain), 1, num_workers());
  const size_t bsize = (n + nblocks - 1) / nblocks;
  std::vector<size_t> rows(nblocks * num_buckets, 0);  // rows[blk * num_buckets + b]
  auto each_block = [&](auto visit) {
    parallel_for(0, nblocks, [&](size_t blk) {
      size_t* row = rows.data() + blk * num_buckets;
      for (size_t i = blk * bsize; i < std::min(n, (blk + 1) * bsize); ++i) visit(row, i);
    }, 1);
  };
  each_block([&](size_t* row, size_t i) { items(i, [&](size_t b, const V&) { ++row[b]; }); });
  std::vector<size_t> offsets(num_buckets + 1, 0);
  parallel_for(0, num_buckets, [&](size_t b) {
    for (size_t blk = 0; blk < nblocks; ++blk) offsets[b] += rows[blk * num_buckets + b];
  });
  std::vector<V> values(scan_exclusive_add(std::span<size_t>(offsets)));
  // Bucket b's values start at offsets[b], block by block in item order.
  parallel_for(0, num_buckets, [&](size_t b) {
    size_t at = offsets[b];
    for (size_t blk = 0; blk < nblocks; ++blk) at += std::exchange(rows[blk * num_buckets + b], at);
  });
  each_block([&](size_t* row, size_t i) {
    items(i, [&](size_t b, const V& v) { values[row[b]++] = v; });
  });
  return {std::move(offsets), std::move(values)};
}

}  // namespace pp
