// Tests for parallel merge sort, parallel merge stability, counting sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "parallel/sort.h"
#include "test_backends.h"

namespace {

using pp::backend_kind;

class SortTest : public ::testing::TestWithParam<std::tuple<backend_kind, size_t>> {
 protected:
  // Every test body runs under the parametrized backend.
  pp::scoped_context scope_{pp::context{}.with_backend(std::get<0>(GetParam()))};
  size_t n() const { return std::get<1>(GetParam()); }
};

TEST_P(SortTest, SortsRandomInput) {
  std::mt19937_64 gen(42 + n());
  std::vector<int64_t> xs(n());
  for (auto& x : xs) x = static_cast<int64_t>(gen() % 1000);
  auto expect = xs;
  std::stable_sort(expect.begin(), expect.end());
  pp::sort_inplace(std::span<int64_t>(xs));
  EXPECT_EQ(xs, expect);
}

TEST_P(SortTest, SortsAdversarialPatterns) {
  // descending
  std::vector<int64_t> xs(n());
  for (size_t i = 0; i < n(); ++i) xs[i] = static_cast<int64_t>(n() - i);
  pp::sort_inplace(std::span<int64_t>(xs));
  EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
  // all equal
  std::fill(xs.begin(), xs.end(), 7);
  pp::sort_inplace(std::span<int64_t>(xs));
  EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
  // organ pipe
  for (size_t i = 0; i < n(); ++i) xs[i] = static_cast<int64_t>(std::min(i, n() - i));
  pp::sort_inplace(std::span<int64_t>(xs));
  EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
}

TEST_P(SortTest, StabilityPreserved) {
  // Sort (key, original_index) pairs by key only; indices must stay ordered
  // within equal keys.
  struct Rec {
    int key;
    uint32_t idx;
  };
  std::mt19937_64 gen(7);
  std::vector<Rec> xs(n());
  for (size_t i = 0; i < n(); ++i)
    xs[i] = {static_cast<int>(gen() % 10), static_cast<uint32_t>(i)};
  pp::sort_inplace(std::span<Rec>(xs), [](const Rec& a, const Rec& b) { return a.key < b.key; });
  for (size_t i = 1; i < xs.size(); ++i) {
    ASSERT_LE(xs[i - 1].key, xs[i].key);
    if (xs[i - 1].key == xs[i].key) ASSERT_LT(xs[i - 1].idx, xs[i].idx);
  }
}

TEST_P(SortTest, SortIndicesMatchesDirectSort) {
  std::mt19937_64 gen(99);
  std::vector<int64_t> keys(n());
  for (auto& k : keys) k = static_cast<int64_t>(gen() % 100000);
  auto idx = pp::sort_indices(n(), [&](uint32_t a, uint32_t b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return a < b;
  });
  ASSERT_EQ(idx.size(), n());
  for (size_t i = 1; i < idx.size(); ++i) ASSERT_LE(keys[idx[i - 1]], keys[idx[i]]);
  // idx must be a permutation
  std::vector<bool> seen(n(), false);
  for (auto i : idx) {
    ASSERT_LT(i, n());
    ASSERT_FALSE(seen[i]);
    seen[i] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SortTest,
    ::testing::Combine(::testing::ValuesIn(pp_test::kBackends),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{10}, size_t{8192},
                                         size_t{100000})),
    [](const auto& info) {
      return std::string(pp::backend_name(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(CountingSort, GroupsStable) {
  constexpr size_t n = 100000, buckets = 64;
  std::mt19937_64 gen(3);
  std::vector<uint64_t> xs(n);
  for (size_t i = 0; i < n; ++i) xs[i] = (gen() % buckets) * n + i;  // key*n+i: unique, ordered
  std::vector<uint64_t> out(n);
  auto offs = pp::counting_sort_by_key(std::span<const uint64_t>(xs), std::span<uint64_t>(out),
                                       buckets, [&](uint64_t x) { return x / n; });
  ASSERT_EQ(offs.size(), buckets + 1);
  EXPECT_EQ(offs.front(), 0u);
  EXPECT_EQ(offs.back(), n);
  for (size_t k = 0; k < buckets; ++k) {
    for (size_t i = offs[k]; i < offs[k + 1]; ++i) {
      ASSERT_EQ(out[i] / n, k);
      if (i > offs[k]) ASSERT_LT(out[i - 1], out[i]);  // stability → ascending i
    }
  }
}

TEST(CountingSort, SingleBucketAndEmpty) {
  std::vector<int> xs = {5, 3, 1};
  std::vector<int> out(3);
  auto offs = pp::counting_sort_by_key(std::span<const int>(xs), std::span<int>(out), 1,
                                       [](int) { return 0; });
  EXPECT_EQ(out, xs);  // stable, single bucket = identity
  EXPECT_EQ(offs, (std::vector<size_t>{0, 3}));

  std::vector<int> empty, eout;
  auto offs2 = pp::counting_sort_by_key(std::span<const int>(empty), std::span<int>(eout), 4,
                                        [](int) { return 0; });
  EXPECT_EQ(offs2.back(), 0u);
}

}  // namespace
