// Tests for deterministic random streams and random permutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "parallel/api.h"
#include "parallel/random.h"

namespace {

TEST(RandomStream, DeterministicPerSeed) {
  pp::random_stream a(123), b(123), c(124);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.ith(i), b.ith(i));
  }
  size_t diffs = 0;
  for (uint64_t i = 0; i < 100; ++i) diffs += (a.ith(i) != c.ith(i));
  EXPECT_GT(diffs, 90u);
}

TEST(RandomStream, BoundedInRange) {
  pp::random_stream rs(7);
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_LT(rs.ith_bounded(i, 17), 17u);
    int64_t v = rs.ith_range(i, -5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rs.ith_double(i);
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomStream, BoundedRoughlyUniform) {
  pp::random_stream rs(11);
  constexpr uint64_t buckets = 10, samples = 100000;
  std::vector<size_t> hist(buckets, 0);
  for (uint64_t i = 0; i < samples; ++i) hist[rs.ith_bounded(i, buckets)]++;
  for (auto h : hist) {
    EXPECT_NEAR(static_cast<double>(h), samples / static_cast<double>(buckets),
                5 * std::sqrt(static_cast<double>(samples)));
  }
}

TEST(RandomStream, ForkedStreamsIndependent) {
  pp::random_stream rs(5);
  auto c1 = rs.fork(1), c2 = rs.fork(2);
  size_t same = 0;
  for (uint64_t i = 0; i < 1000; ++i) same += (c1.ith(i) == c2.ith(i));
  EXPECT_LT(same, 5u);
}

TEST(RandomPermutation, IsPermutationAndDeterministic) {
  for (size_t n : {0ul, 1ul, 2ul, 1000ul, 50000ul}) {
    auto p = pp::random_permutation(n, 42);
    auto q = pp::random_permutation(n, 42);
    EXPECT_EQ(p, q);
    std::vector<bool> seen(n, false);
    ASSERT_EQ(p.size(), n);
    for (auto i : p) {
      ASSERT_LT(i, n);
      ASSERT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
}

// random_permutation buckets its keys; it must equal the plain comparison
// sort of the indices by (key, index), at every width.
TEST(RandomPermutation, EqualsComparisonSortByKeyThenIndex) {
  for (size_t n : {0ul, 1ul, 2ul, 3ul, 1000ul, 50000ul, 1ul << 17}) {
    pp::random_stream rs(77);
    std::vector<uint32_t> model(n);
    for (size_t i = 0; i < n; ++i) model[i] = static_cast<uint32_t>(i);
    std::sort(model.begin(), model.end(), [&](uint32_t a, uint32_t b) {
      uint64_t ka = rs.ith(a), kb = rs.ith(b);
      return ka != kb ? ka < kb : a < b;
    });
    for (unsigned workers : {1u, 4u}) {
      pp::run_scope scope(pp::context{}.with_workers(workers));
      EXPECT_EQ(pp::random_permutation(n, 77), model) << "n = " << n << ", workers = " << workers;
    }
  }
}

TEST(RandomPermutation, DifferentSeedsDiffer) {
  auto p = pp::random_permutation(1000, 1);
  auto q = pp::random_permutation(1000, 2);
  EXPECT_NE(p, q);
}

TEST(RandomPermutation, NotIdentity) {
  auto p = pp::random_permutation(1000, 7);
  size_t fixed = 0;
  for (size_t i = 0; i < p.size(); ++i) fixed += (p[i] == i);
  EXPECT_LT(fixed, 20u);  // expected ~1 fixed point
}

}  // namespace
