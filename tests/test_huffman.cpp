// Tests for Huffman construction: the parallel frontier-merge algorithm
// must be exactly optimal (equal WPL to the sequential greedy), with
// bounded round counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <random>
#include <vector>

#include "algos/huffman.h"

namespace {

// Every solver call below runs under the library's default context.
const pp::context kCtx{};

// Textbook heap-based reference WPL.
uint64_t heap_wpl(std::span<const uint64_t> freqs) {
  if (freqs.size() <= 1) return 0;
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<uint64_t>> pq(freqs.begin(),
                                                                                  freqs.end());
  uint64_t total = 0;
  while (pq.size() > 1) {
    uint64_t a = pq.top();
    pq.pop();
    uint64_t b = pq.top();
    pq.pop();
    total += a + b;  // sum of internal node weights == WPL
    pq.push(a + b);
  }
  return total;
}

void check_tree_shape(const pp::huffman_result& res, size_t n) {
  if (n <= 1) return;
  size_t total = 2 * n - 1;
  ASSERT_EQ(res.parent.size(), total);
  EXPECT_EQ(res.parent[total - 1], pp::kNoParent);  // root
  std::vector<int> children(total, 0);
  for (size_t i = 0; i < total - 1; ++i) {
    ASSERT_LT(res.parent[i], total);
    ASSERT_GT(res.parent[i], i);  // parents created after children
    children[res.parent[i]]++;
  }
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(children[i], 0) << "leaf " << i;
  for (size_t i = n; i < total; ++i) EXPECT_EQ(children[i], 2) << "internal " << i;
}

class HuffmanRandom : public ::testing::TestWithParam<std::tuple<size_t, uint64_t, uint64_t>> {};

TEST_P(HuffmanRandom, SeqAndParallelAreOptimal) {
  auto [n, max_f, seed] = GetParam();
  auto freqs = pp::uniform_freqs(n, max_f, seed);
  uint64_t expect = heap_wpl(freqs);
  auto seq = pp::huffman_seq(freqs, kCtx);
  auto par = pp::huffman_parallel(freqs, kCtx);
  EXPECT_EQ(seq.wpl, expect);
  EXPECT_EQ(par.wpl, expect);
  check_tree_shape(seq, n);
  check_tree_shape(par, n);
}

TEST_P(HuffmanRandom, RoundsAtMostHeightPlusSlack) {
  auto [n, max_f, seed] = GetParam();
  if (n < 2) return;
  auto freqs = pp::uniform_freqs(n, max_f, seed);
  auto par = pp::huffman_parallel(freqs, kCtx);
  // Theorem 4.7: the algorithm finishes in O(H) rounds; the odd-frontier
  // postponement costs at most one extra round per level.
  EXPECT_LE(par.stats.rounds, 2u * (par.height + 1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, HuffmanRandom,
                         ::testing::Values(std::tuple{size_t{0}, 10ul, 1ul},
                                           std::tuple{size_t{1}, 10ul, 2ul},
                                           std::tuple{size_t{2}, 10ul, 3ul},
                                           std::tuple{size_t{3}, 10ul, 4ul},
                                           std::tuple{size_t{100}, 1000ul, 5ul},
                                           std::tuple{size_t{1000}, 1000ul, 6ul},
                                           std::tuple{size_t{1000}, 5ul, 7ul},  // heavy ties
                                           std::tuple{size_t{50000}, 1u << 20, 8ul}));

TEST(Huffman, AllEqualFrequencies) {
  std::vector<uint64_t> freqs(256, 7);
  auto seq = pp::huffman_seq(freqs, kCtx);
  auto par = pp::huffman_parallel(freqs, kCtx);
  EXPECT_EQ(seq.wpl, par.wpl);
  EXPECT_EQ(par.height, 8u);  // perfectly balanced over 2^8 leaves
  EXPECT_EQ(seq.wpl, 256u * 7 * 8);
}

TEST(Huffman, ExponentialGivesDeepTree) {
  // Fibonacci-like frequencies make a path-shaped tree (height ~ n).
  std::vector<uint64_t> freqs;
  uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(a);
    uint64_t c = a + b;
    a = b;
    b = c;
  }
  std::sort(freqs.begin(), freqs.end());
  auto par = pp::huffman_parallel(freqs, kCtx);
  auto seq = pp::huffman_seq(freqs, kCtx);
  EXPECT_EQ(par.wpl, seq.wpl);
  EXPECT_GE(par.height, 38u);
  EXPECT_GE(par.stats.rounds, 38u);  // rank ~ height: little parallelism
}

TEST(Huffman, GeneratorsSortedAndPositive) {
  for (auto freqs : {pp::uniform_freqs(1000, 500, 1), pp::exponential_freqs(1000, 0.01, 1u << 30, 2),
                     pp::zipf_freqs(1000, 1.2, 1u << 20, 3)}) {
    ASSERT_EQ(freqs.size(), 1000u);
    for (size_t i = 0; i < freqs.size(); ++i) {
      ASSERT_GE(freqs[i], 1u);
      if (i > 0) ASSERT_LE(freqs[i - 1], freqs[i]);
    }
  }
}

TEST(Huffman, UniformRoundsStaySmall) {
  // Sec. 6.2: rounds stay in the tens because height ~ log(total freq).
  auto freqs = pp::uniform_freqs(100000, 1000, 4);
  auto par = pp::huffman_parallel(freqs, kCtx);
  EXPECT_LE(par.stats.rounds, 64u);
  EXPECT_GE(par.stats.rounds, 10u);
}

}  // namespace
