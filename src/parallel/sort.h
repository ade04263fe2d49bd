// Parallel sorting: stable merge sort with a parallel merge (O(n log n)
// work, O(log^2 n) span for the merge tree — polylog span overall), plus a
// stable parallel counting sort for small integer key spaces (used to build
// pivot tables and CSR graphs).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
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

// ---------------------------------------------------------------------------
// Stable parallel counting sort for keys in [0, num_buckets).
// Returns bucket offsets (size num_buckets + 1); reorders xs into out.
// O(n + num_buckets) work per pass, O(polylog) span for machine-sized block
// counts. Used for grouping pivot pairs and building CSR adjacency.
// ---------------------------------------------------------------------------
template <typename T, typename KeyFn>
std::vector<size_t> counting_sort_by_key(std::span<const T> xs, std::span<T> out,
                                         size_t num_buckets, KeyFn key) {
  size_t n = xs.size();
  size_t nblocks = std::max<size_t>(1, std::min<size_t>(static_cast<size_t>(num_workers()) * 4,
                                                        n / std::max<size_t>(1, num_buckets) + 1));
  size_t bsize = (n + nblocks - 1) / nblocks;
  if (bsize == 0) bsize = 1;
  nblocks = n == 0 ? 0 : (n + bsize - 1) / bsize;

  // counts[b * num_buckets + k] = #elements with key k in block b
  std::vector<size_t> counts(nblocks * num_buckets, 0);
  parallel_for(0, nblocks, [&](size_t b) {
    size_t lo = b * bsize, hi = std::min(n, lo + bsize);
    size_t* my = counts.data() + b * num_buckets;
    for (size_t i = lo; i < hi; ++i) my[key(xs[i])]++;
  }, detail::grain_for_cost(bsize));

  // Column-major prefix: for key k, blocks in order → stable placement.
  std::vector<size_t> offsets(num_buckets + 1, 0);
  {
    size_t acc = 0;
    for (size_t k = 0; k < num_buckets; ++k) {
      offsets[k] = acc;
      for (size_t b = 0; b < nblocks; ++b) {
        size_t c = counts[b * num_buckets + k];
        counts[b * num_buckets + k] = acc;
        acc += c;
      }
    }
    offsets[num_buckets] = acc;
  }

  parallel_for(0, nblocks, [&](size_t b) {
    size_t lo = b * bsize, hi = std::min(n, lo + bsize);
    size_t* my = counts.data() + b * num_buckets;
    for (size_t i = lo; i < hi; ++i) out[my[key(xs[i])]++] = xs[i];
  }, detail::grain_for_cost(bsize));
  return offsets;
}

}  // namespace pp
