// Parallel sequence primitives built on par_do/parallel_for: reduce, scans,
// pack/filter, map, iota. These play the role ParlayLib plays in the
// authors' implementation.
//
// All primitives are deterministic: given the same input they produce the
// same output regardless of backend or worker count.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "parallel/api.h"

namespace pp {

// ---------------------------------------------------------------------------
// reduce
// ---------------------------------------------------------------------------

// Reduce f(lo..hi) with an associative `combine`; `map(i)` produces the i-th
// leaf value. O(n) work, O(log n) span. `grain` resolves as in
// parallel_for: the argument, then ctx.grain, then auto_grain.
template <typename T, typename Map, typename Combine>
T reduce_map(size_t lo, size_t hi, T identity, Map map, Combine combine, size_t grain = 0) {
  if (hi <= lo) return identity;
  if (grain == 0) grain = detail::resolve_grain(current_context(), hi - lo, 0);
  if (!detail::splits(hi - lo, grain)) {
    T acc = identity;
    for (size_t i = lo; i < hi; ++i) acc = combine(acc, map(i));
    return acc;
  }
  size_t mid = lo + (hi - lo) / 2;
  T left{}, right{};
  par_do([&] { left = reduce_map(lo, mid, identity, map, combine, grain); },
         [&] { right = reduce_map(mid, hi, identity, map, combine, grain); });
  return combine(left, right);
}

template <typename T, typename Combine>
T reduce(std::span<const T> xs, T identity, Combine combine) {
  return reduce_map(
      size_t{0}, xs.size(), identity, [&](size_t i) { return xs[i]; }, combine);
}

template <typename T>
T reduce_add(std::span<const T> xs) {
  return reduce(xs, T{}, std::plus<T>{});
}

// ---------------------------------------------------------------------------
// scan
// ---------------------------------------------------------------------------

// Exclusive scan in place; returns the total. Two-pass blocked algorithm:
// O(n) work, O(log n) span (block count is O(P), the serial sweep over block
// sums is O(P) which we treat as polylog for machine-sized P).
template <typename T, typename Combine>
T scan_exclusive(std::span<T> xs, T identity, Combine combine) {
  size_t n = xs.size();
  if (n == 0) return identity;
  size_t nblocks = static_cast<size_t>(num_workers()) * 8;
  size_t bsize = (n + nblocks - 1) / nblocks;
  if (bsize < 2048) {  // small input: serial scan is faster and simpler
    T acc = identity;
    for (size_t i = 0; i < n; ++i) {
      T next = combine(acc, xs[i]);
      xs[i] = acc;
      acc = next;
    }
    return acc;
  }
  nblocks = (n + bsize - 1) / bsize;
  std::vector<T> sums(nblocks);
  parallel_for(0, nblocks, [&](size_t b) {
    size_t lo = b * bsize, hi = std::min(n, lo + bsize);
    T acc = identity;
    for (size_t i = lo; i < hi; ++i) acc = combine(acc, xs[i]);
    sums[b] = acc;
  }, detail::grain_for_cost(bsize));
  T total = identity;
  for (size_t b = 0; b < nblocks; ++b) {
    T next = combine(total, sums[b]);
    sums[b] = total;
    total = next;
  }
  parallel_for(0, nblocks, [&](size_t b) {
    size_t lo = b * bsize, hi = std::min(n, lo + bsize);
    T acc = sums[b];
    for (size_t i = lo; i < hi; ++i) {
      T next = combine(acc, xs[i]);
      xs[i] = acc;
      acc = next;
    }
  }, detail::grain_for_cost(bsize));
  return total;
}

template <typename T>
T scan_exclusive_add(std::span<T> xs) {
  return scan_exclusive(xs, T{}, std::plus<T>{});
}

// Inclusive scan in place; returns the total.
template <typename T, typename Combine>
T scan_inclusive(std::span<T> xs, T identity, Combine combine) {
  size_t n = xs.size();
  if (n == 0) return identity;
  size_t nblocks = static_cast<size_t>(num_workers()) * 8;
  size_t bsize = std::max<size_t>(2048, (n + nblocks - 1) / nblocks);
  nblocks = (n + bsize - 1) / bsize;
  std::vector<T> sums(nblocks);
  parallel_for(0, nblocks, [&](size_t b) {
    size_t lo = b * bsize, hi = std::min(n, lo + bsize);
    T acc = identity;
    for (size_t i = lo; i < hi; ++i) {
      acc = combine(acc, xs[i]);
      xs[i] = acc;
    }
    sums[b] = acc;
  }, detail::grain_for_cost(bsize));
  std::vector<T> offsets(nblocks);
  T total = identity;
  for (size_t b = 0; b < nblocks; ++b) {
    offsets[b] = total;
    total = combine(total, sums[b]);
  }
  parallel_for(1, nblocks, [&](size_t b) {
    size_t lo = b * bsize, hi = std::min(n, lo + bsize);
    for (size_t i = lo; i < hi; ++i) xs[i] = combine(offsets[b], xs[i]);
  }, detail::grain_for_cost(bsize));
  return total;
}

// ---------------------------------------------------------------------------
// pack / filter
// ---------------------------------------------------------------------------

// Stable pack: output[j] = xs[i] for the j-th index i with flag(i) true.
template <typename T, typename Flag>
std::vector<T> pack(std::span<const T> xs, Flag flag) {
  size_t n = xs.size();
  std::vector<size_t> pos(n);
  parallel_for(0, n, [&](size_t i) { pos[i] = flag(i) ? 1 : 0; });
  size_t total = scan_exclusive_add(std::span<size_t>(pos));
  std::vector<T> out(total);
  parallel_for(0, n, [&](size_t i) {
    if (flag(i)) out[pos[i]] = xs[i];
  });
  return out;
}

// Pack the *indices* [0,n) whose flag is true.
template <typename Flag>
std::vector<size_t> pack_index(size_t n, Flag flag) {
  std::vector<size_t> pos(n);
  parallel_for(0, n, [&](size_t i) { pos[i] = flag(i) ? 1 : 0; });
  size_t total = scan_exclusive_add(std::span<size_t>(pos));
  std::vector<size_t> out(total);
  parallel_for(0, n, [&](size_t i) {
    if (flag(i)) out[pos[i]] = i;
  });
  return out;
}

template <typename T, typename Pred>
std::vector<T> filter(std::span<const T> xs, Pred pred) {
  return pack(xs, [&](size_t i) { return pred(xs[i]); });
}

// ---------------------------------------------------------------------------
// map / tabulate / iota
// ---------------------------------------------------------------------------

template <typename T, typename F>
std::vector<T> tabulate(size_t n, F f) {
  std::vector<T> out(n);
  parallel_for(0, n, [&](size_t i) { out[i] = f(i); });
  return out;
}

template <typename T>
std::vector<T> iota(size_t n, T start = T{}) {
  return tabulate<T>(n, [&](size_t i) { return static_cast<T>(start + static_cast<T>(i)); });
}

template <typename In, typename F>
auto map(std::span<const In> xs, F f) {
  using Out = decltype(f(xs[0]));
  std::vector<Out> out(xs.size());
  parallel_for(0, xs.size(), [&](size_t i) { out[i] = f(xs[i]); });
  return out;
}

// ---------------------------------------------------------------------------
// min / max with index
// ---------------------------------------------------------------------------

// Index of the minimum element (first one on ties). O(n) work, O(log n) span.
template <typename T, typename Less = std::less<T>>
size_t min_index(std::span<const T> xs, Less less = Less{}) {
  assert(!xs.empty());
  return reduce_map(
      size_t{0}, xs.size(), xs.size(),
      [](size_t i) { return i; },
      [&](size_t a, size_t b) {
        if (a == xs.size()) return b;
        if (b == xs.size()) return a;
        if (less(xs[b], xs[a])) return b;
        return a;  // prefer smaller index on ties (a < b always here)
      });
}

template <typename T, typename Less = std::less<T>>
size_t max_index(std::span<const T> xs, Less less = Less{}) {
  return min_index(xs, [&](const T& a, const T& b) { return less(b, a); });
}

// ---------------------------------------------------------------------------
// write_min / write_max (atomic priority update, used by SSSP etc.)
// ---------------------------------------------------------------------------

// C++20 value-initialises std::atomic<T>, so a freshly built
// std::vector<std::atomic<T>>(n) already holds T{} in every slot; the
// solvers rely on that and store only non-zero initial values.
static_assert(__cpp_lib_atomic_value_initialization >= 201911L);

template <typename T>
bool write_min(std::atomic<T>* target, T value) {
  T cur = target->load(std::memory_order_relaxed);
  while (value < cur) {
    if (target->compare_exchange_weak(cur, value, std::memory_order_relaxed)) return true;
  }
  return false;
}

template <typename T>
bool write_max(std::atomic<T>* target, T value) {
  T cur = target->load(std::memory_order_relaxed);
  while (cur < value) {
    if (target->compare_exchange_weak(cur, value, std::memory_order_relaxed)) return true;
  }
  return false;
}

}  // namespace pp
