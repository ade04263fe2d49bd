// Deterministic, splittable randomness for parallel algorithms.
//
// All random choices in the library flow through stateless SplitMix64-style
// hashing of (seed, index). This gives the reproducibility property used by
// the tests: the same seed produces the same priorities / weights / pivots
// regardless of worker count or backend.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/primitives.h"
#include "parallel/sort.h"

namespace pp {

// SplitMix64 finalizer: a high-quality 64-bit mixer (Steele et al.).
inline uint64_t hash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// A stateless random stream: draw i-th value of stream `seed` in O(1).
// The seed is required on purpose (pplint rejects defaulted seeds): a
// silent seed-0 stream is exactly the kind of hidden global that breaks
// run-to-run reproducibility audits.
class random_stream {
 public:
  explicit random_stream(uint64_t seed) : seed_(seed) {}

  uint64_t ith(uint64_t i) const { return hash64(seed_ ^ hash64(i + 1)); }

  // Uniform in [0, bound) by 128-bit multiply (Lemire reduction, modulo
  // bias negligible for bound << 2^64).
  uint64_t ith_bounded(uint64_t i, uint64_t bound) const {
    return static_cast<uint64_t>((static_cast<__uint128_t>(ith(i)) * bound) >> 64);
  }

  // Uniform in [lo, hi] inclusive.
  int64_t ith_range(uint64_t i, int64_t lo, int64_t hi) const {
    return lo + static_cast<int64_t>(ith_bounded(i, static_cast<uint64_t>(hi - lo + 1)));
  }

  // Uniform double in [0, 1).
  double ith_double(uint64_t i) const {
    return static_cast<double>(ith(i) >> 11) * 0x1.0p-53;
  }

  // Derive an independent child stream.
  random_stream fork(uint64_t salt) const { return random_stream(hash64(seed_ ^ (salt + 0x5851f42d4c957f2dull))); }

 private:
  uint64_t seed_;
};

// A random permutation of [0, n): the indices sorted by (key, index), for
// one random 64-bit key per index, so it is fully deterministic per seed.
// The indices are bucketed by the top bits of their key, two to four to a
// bucket on average, and each bucket is then sorted by (key, index); the
// buckets partition the key range in order, so this is the full sort.
// Expected O(n) work; the span is bucket_scatter's plus the largest
// bucket's sort, and that bucket holds O(log n) keys with high probability.
inline std::vector<uint32_t> random_permutation(size_t n, uint64_t seed) {
  random_stream rs(seed);
  std::vector<uint64_t> keys = tabulate<uint64_t>(n, [&](size_t i) { return rs.ith(i); });
  const int bits = n < 4 ? 0 : std::bit_width(n) - 2;  // 2^bits buckets, in (n/4, n/2]
  const size_t num_buckets = size_t{1} << bits;
  auto [starts, perm] = bucket_scatter<uint32_t>(n, num_buckets, [&](size_t i, auto put) {
    put(bits == 0 ? 0 : keys[i] >> (64 - bits), static_cast<uint32_t>(i));
  });
  parallel_for(0, num_buckets, [&](size_t b) {
    std::sort(perm.begin() + starts[b], perm.begin() + starts[b + 1], [&](uint32_t x, uint32_t y) {
      return keys[x] != keys[y] ? keys[x] < keys[y] : x < y;
    });
  }, detail::grain_for_cost(16));
  return perm;
}

}  // namespace pp
