// Fenwick (binary indexed) trees for prefix-maximum, in a plain and an
// atomic flavour.
//
// Prefix-max Fenwicks only ever *raise* values, which makes the atomic
// variant race-free under concurrent updates (write_max per node is
// commutative and monotone): batches of dp updates in Type-1 activity
// selection and the Type-2 wake-up algorithms can be applied with plain
// parallel_for. A query must not race a raise it depends on: the round
// structure writes every dp value a query needs in an earlier round.
// prefix_max(k) reads only nodes <= k and raise(p) writes only nodes
// > p, so a query may run beside raises at positions >= k.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "parallel/primitives.h"

namespace pp {

template <typename T>
class fenwick_max {
 public:
  explicit fenwick_max(size_t n, T identity) : n_(n), id_(identity), t_(n + 1, identity) {}

  // max over positions [0, k)
  T prefix_max(size_t k) const {
    T acc = id_;
    for (size_t i = k; i > 0; i -= i & (~i + 1))
      if (t_[i] > acc) acc = t_[i];
    return acc;
  }

  // raise position p to at least v
  void raise(size_t p, T v) {
    for (size_t i = p + 1; i <= n_; i += i & (~i + 1))
      if (v > t_[i]) t_[i] = v;
  }

  size_t size() const { return n_; }

 private:
  size_t n_;
  T id_;
  std::vector<T> t_;
};

// Every position starts at T{} (zero): the atomics are value-initialised.
template <typename T>
class atomic_fenwick_max {
 public:
  explicit atomic_fenwick_max(size_t n) : n_(n), t_(n + 1) {}

  T prefix_max(size_t k) const {
    T acc{};
    for (size_t i = k; i > 0; i -= i & (~i + 1)) {
      T v = t_[i].load(std::memory_order_relaxed);
      if (v > acc) acc = v;
    }
    return acc;
  }

  // Concurrent-safe: write_max every node on the update path.
  void raise(size_t p, T v) {
    for (size_t i = p + 1; i <= n_; i += i & (~i + 1)) write_max(&t_[i], v);
  }

  size_t size() const { return n_; }

 private:
  size_t n_;
  std::vector<std::atomic<T>> t_;
};

}  // namespace pp
