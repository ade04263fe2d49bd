// Huffman tree construction (Sec. 4.3).
//
// Sequential: the classic two-queue O(n) merge over pre-sorted
// frequencies. Parallel: the paper's relaxed-rank algorithm — per round,
// f_m = sum of the two smallest live frequencies; every live object with
// frequency < f_m is ready (nothing smaller can appear later), so pair
// them up in sorted order, emit |T|/2 internal nodes (their sums are again
// sorted), and parallel-merge with the remaining objects. O(n log n) work,
// O(H log n) span for tree height H; the number of rounds is at most H
// (Theorem 4.7, via the relaxed rank of Definition 4.6).
//
// Both produce an optimal prefix tree: equal weighted path lengths
// (individual tree shapes may differ on frequency ties).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/context.h"
#include "core/stats.h"

namespace pp {

struct huffman_result {
  // 2n-1 nodes: 0..n-1 leaves (input order), n..2n-2 internal in creation
  // order; root = 2n-2. parent[root] = kNoParent. For n <= 1 there are no
  // internal nodes.
  std::vector<uint32_t> parent;
  uint64_t wpl = 0;     // weighted path length: sum freq[i] * depth(leaf i)
  uint32_t height = 0;  // max leaf depth
  phase_stats stats;
};

inline constexpr uint32_t kNoParent = 0xFFFFFFFFu;

// Precondition for both: freqs sorted ascending, all >= 1.
huffman_result huffman_seq(std::span<const uint64_t> freqs, const context& ctx);
huffman_result huffman_parallel(std::span<const uint64_t> freqs, const context& ctx);

// Code length (= leaf depth) of each input symbol, in input order. For
// n == 1 the single symbol gets code length 0.
std::vector<uint32_t> huffman_code_lengths(const huffman_result& res, size_t n);

// Kraft-McMillan check: sum over symbols of 2^-len == 1 for a full binary
// code tree (n >= 2). Used by tests and by decoders to validate a code.
bool kraft_exact(std::span<const uint32_t> lengths);

// Sorted frequency generators for the experiment distributions of Sec. 6.2
// (uniform in [1, max_f], exponential-ish, Zipf), all >= 1.
std::vector<uint64_t> uniform_freqs(size_t n, uint64_t max_f, uint64_t seed);
std::vector<uint64_t> exponential_freqs(size_t n, double lambda, uint64_t max_f, uint64_t seed);
std::vector<uint64_t> zipf_freqs(size_t n, double s, uint64_t max_f, uint64_t seed);

}  // namespace pp
