// Tests for the PA-BST (augmented_map): balance, ordering, augmented range
// queries, batch operations — all validated against brute-force references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "pabst/augmented_map.h"

namespace {

using MaxEntry = pp::max_val_entry<int64_t, int64_t, std::numeric_limits<int64_t>::min()>;
using MinEntry = pp::min_val_entry<int64_t, int64_t, std::numeric_limits<int64_t>::max()>;
using SumEntry = pp::sum_val_entry<int64_t, int64_t>;
using MaxMap = pp::augmented_map<MaxEntry>;

std::vector<MaxMap::entry_t> sorted_entries(size_t n, uint64_t seed) {
  // distinct keys 0..2n step 2, random values
  std::mt19937_64 gen(seed);
  std::vector<MaxMap::entry_t> es(n);
  for (size_t i = 0; i < n; ++i)
    es[i] = {static_cast<int64_t>(2 * i), static_cast<int64_t>(gen() % 10000)};
  return es;
}

class PabstSize : public ::testing::TestWithParam<size_t> {};

TEST_P(PabstSize, BuildInvariantsAndFlattenRoundTrip) {
  auto es = sorted_entries(GetParam(), 1);
  auto m = MaxMap::from_sorted(es);
  EXPECT_EQ(m.size(), es.size());
  EXPECT_TRUE(m.check_invariants());
  auto flat = m.flatten();
  ASSERT_EQ(flat.size(), es.size());
  for (size_t i = 0; i < es.size(); ++i) {
    EXPECT_EQ(flat[i].key, es[i].key);
    EXPECT_EQ(flat[i].val, es[i].val);
  }
}

TEST_P(PabstSize, HeightIsLogarithmic) {
  size_t n = GetParam();
  auto m = MaxMap::from_sorted(sorted_entries(n, 2));
  if (n == 0) {
    EXPECT_EQ(m.height(), 0);
    return;
  }
  double bound = 1.45 * std::log2(static_cast<double>(n) + 2) + 2;
  EXPECT_LE(m.height(), static_cast<int>(bound));
}

TEST_P(PabstSize, AugAllIsMax) {
  auto es = sorted_entries(GetParam(), 3);
  auto m = MaxMap::from_sorted(es);
  int64_t expect = std::numeric_limits<int64_t>::min();
  for (auto& e : es) expect = std::max(expect, e.val);
  EXPECT_EQ(m.aug_all(), expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PabstSize,
                         ::testing::Values(size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{10},
                                           size_t{100}, size_t{1000}, size_t{50000}));

TEST(Pabst, InsertFindRemoveAgainstStdMap) {
  MaxMap m;
  std::map<int64_t, int64_t> ref;
  std::mt19937_64 gen(7);
  for (int op = 0; op < 20000; ++op) {
    int64_t k = static_cast<int64_t>(gen() % 2000);
    int choice = static_cast<int>(gen() % 3);
    if (choice == 0) {
      int64_t v = static_cast<int64_t>(gen() % 100000);
      m.insert(k, v);
      ref[k] = v;
    } else if (choice == 1) {
      EXPECT_EQ(m.remove(k), ref.erase(k) > 0);
    } else {
      const int64_t* got = m.find(k);
      auto it = ref.find(k);
      if (it == ref.end()) {
        EXPECT_EQ(got, nullptr);
      } else {
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(*got, it->second);
      }
    }
  }
  EXPECT_TRUE(m.check_invariants());
  EXPECT_EQ(m.size(), ref.size());
  auto flat = m.flatten();
  size_t i = 0;
  for (auto& [k, v] : ref) {
    ASSERT_EQ(flat[i].key, k);
    ASSERT_EQ(flat[i].val, v);
    ++i;
  }
}

TEST(Pabst, SelectAndRank) {
  auto es = sorted_entries(5000, 73);  // keys 0,2,...,9998
  auto m = MaxMap::from_sorted(es);
  for (size_t k : {0ul, 1ul, 2499ul, 4999ul}) {
    auto e = m.select(k);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->key, es[k].key);
    EXPECT_EQ(e->val, es[k].val);
  }
  EXPECT_FALSE(m.select(5000).has_value());
  // rank_of: #keys < k
  EXPECT_EQ(m.rank_of(-1), 0u);
  EXPECT_EQ(m.rank_of(0), 0u);
  EXPECT_EQ(m.rank_of(1), 1u);
  EXPECT_EQ(m.rank_of(9998), 4999u);
  EXPECT_EQ(m.rank_of(999999), 5000u);
  // select/rank are inverse on present keys
  for (size_t k = 0; k < 5000; k += 137) EXPECT_EQ(m.rank_of(m.select(k)->key), k);
}

TEST(Pabst, FirstLast) {
  MaxMap m;
  EXPECT_FALSE(m.first().has_value());
  EXPECT_FALSE(m.last().has_value());
  m.insert(5, 50);
  m.insert(1, 10);
  m.insert(9, 90);
  EXPECT_EQ(m.first()->key, 1);
  EXPECT_EQ(m.last()->key, 9);
}

// --- augmented range queries against brute force -----------------------------

class PabstAug : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    n_ = GetParam();
    es_ = sorted_entries(n_, 11);
    map_ = MaxMap::from_sorted(es_);
  }
  int64_t brute_max(int64_t lo, int64_t hi) const {  // inclusive both
    int64_t acc = std::numeric_limits<int64_t>::min();
    for (auto& e : es_)
      if (e.key >= lo && e.key <= hi) acc = std::max(acc, e.val);
    return acc;
  }
  size_t n_;
  std::vector<MaxMap::entry_t> es_;
  MaxMap map_;
};

TEST_P(PabstAug, AugLeLtGeMatchBrute) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::mt19937_64 gen(13);
  for (int q = 0; q < 200; ++q) {
    int64_t k = static_cast<int64_t>(gen() % (2 * std::max<size_t>(n_, 1) + 3)) - 1;
    EXPECT_EQ(map_.aug_le(k), brute_max(kMin, k)) << "k=" << k;
    EXPECT_EQ(map_.aug_lt(k), brute_max(kMin, k - 1)) << "k=" << k;
    EXPECT_EQ(map_.aug_ge(k), brute_max(k, kMax)) << "k=" << k;
  }
}

TEST_P(PabstAug, AugRangeMatchesBrute) {
  std::mt19937_64 gen(17);
  int64_t span = static_cast<int64_t>(2 * std::max<size_t>(n_, 1) + 3);
  for (int q = 0; q < 200; ++q) {
    int64_t lo = static_cast<int64_t>(gen() % span) - 1;
    int64_t hi = static_cast<int64_t>(gen() % span) - 1;
    EXPECT_EQ(map_.aug_range(lo, hi), brute_max(lo, hi)) << lo << ".." << hi;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PabstAug,
                         ::testing::Values(size_t{0}, size_t{1}, size_t{7}, size_t{64},
                                           size_t{1000}, size_t{20000}));

TEST(PabstAugSum, SumRangeMatchesBrute) {
  using SumMap = pp::augmented_map<SumEntry>;
  std::vector<SumMap::entry_t> es(5000);
  std::mt19937_64 gen(23);
  for (size_t i = 0; i < es.size(); ++i)
    es[i] = {static_cast<int64_t>(3 * i + 1), static_cast<int64_t>(gen() % 100)};
  auto m = SumMap::from_sorted(es);
  for (int q = 0; q < 300; ++q) {
    int64_t lo = static_cast<int64_t>(gen() % 16000);
    int64_t hi = lo + static_cast<int64_t>(gen() % 3000);
    int64_t expect = 0;
    for (auto& e : es)
      if (e.key >= lo && e.key <= hi) expect += e.val;
    EXPECT_EQ(m.aug_range(lo, hi), expect);
  }
}

TEST(PabstAugMin, MinLeMatchesBrute) {
  using MinMap = pp::augmented_map<MinEntry>;
  std::vector<MinMap::entry_t> es(3000);
  std::mt19937_64 gen(29);
  for (size_t i = 0; i < es.size(); ++i)
    es[i] = {static_cast<int64_t>(i), static_cast<int64_t>(gen() % 100000)};
  auto m = MinMap::from_sorted(es);
  for (int q = 0; q < 300; ++q) {
    int64_t k = static_cast<int64_t>(gen() % 3100);
    int64_t expect = std::numeric_limits<int64_t>::max();
    for (auto& e : es)
      if (e.key <= k) expect = std::min(expect, e.val);
    EXPECT_EQ(m.aug_le(k), expect);
  }
}

// --- split / concat -----------------------------------------------------------

TEST(Pabst, SplitOffLeInclusiveAndExclusive) {
  for (bool inclusive : {true, false}) {
    auto es = sorted_entries(1000, 31);
    auto m = MaxMap::from_sorted(es);
    int64_t pivot = es[400].key;
    auto left = m.split_off_le(pivot, inclusive);
    EXPECT_TRUE(left.check_invariants());
    EXPECT_TRUE(m.check_invariants());
    size_t expect_left = 400 + (inclusive ? 1 : 0);
    EXPECT_EQ(left.size(), expect_left);
    EXPECT_EQ(m.size(), es.size() - expect_left);
    auto lf = left.flatten();
    for (auto& e : lf) EXPECT_TRUE(inclusive ? e.key <= pivot : e.key < pivot);
    auto rf = m.flatten();
    for (auto& e : rf) EXPECT_TRUE(inclusive ? e.key > pivot : e.key >= pivot);
  }
}

TEST(Pabst, SplitAtAbsentKey) {
  auto es = sorted_entries(100, 37);  // keys even
  auto m = MaxMap::from_sorted(es);
  auto left = m.split_off_le(41, true);  // odd key, absent
  EXPECT_EQ(left.size(), 21u);           // keys 0..40
  EXPECT_EQ(m.size(), 79u);
}

TEST(Pabst, ConcatRejoins) {
  auto es = sorted_entries(2000, 41);
  auto m = MaxMap::from_sorted(es);
  auto left = m.split_off_le(es[700].key, true);
  left.concat(std::move(m));
  EXPECT_EQ(left.size(), es.size());
  EXPECT_TRUE(left.check_invariants());
  auto flat = left.flatten();
  for (size_t i = 0; i < es.size(); ++i) ASSERT_EQ(flat[i].key, es[i].key);
}

// --- batch ops ------------------------------------------------------------------

TEST(PabstBatch, MultiInsertIntoEmptyAndExisting) {
  auto es = sorted_entries(10000, 43);
  // insert odd-position entries first, then even ones
  std::vector<MaxMap::entry_t> odd, even;
  for (size_t i = 0; i < es.size(); ++i) (i % 2 ? odd : even).push_back(es[i]);
  MaxMap m;
  m.multi_insert(odd);
  EXPECT_EQ(m.size(), odd.size());
  m.multi_insert(even);
  EXPECT_EQ(m.size(), es.size());
  EXPECT_TRUE(m.check_invariants());
  auto flat = m.flatten();
  for (size_t i = 0; i < es.size(); ++i) ASSERT_EQ(flat[i].val, es[i].val);
}

TEST(PabstBatch, MultiInsertOverwritesExistingKeys) {
  auto es = sorted_entries(1000, 47);
  auto m = MaxMap::from_sorted(es);
  std::vector<MaxMap::entry_t> updates;
  for (size_t i = 0; i < es.size(); i += 3) updates.push_back({es[i].key, es[i].val + 1000000});
  m.multi_insert(updates);
  EXPECT_EQ(m.size(), es.size());
  for (size_t i = 0; i < es.size(); ++i) {
    const int64_t* v = m.find(es[i].key);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i % 3 == 0 ? es[i].val + 1000000 : es[i].val);
  }
}

TEST(PabstBatch, MultiDelete) {
  auto es = sorted_entries(10000, 53);
  auto m = MaxMap::from_sorted(es);
  std::vector<int64_t> del;
  for (size_t i = 0; i < es.size(); i += 2) del.push_back(es[i].key);
  del.push_back(999999);  // absent key: no-op
  std::sort(del.begin(), del.end());
  m.multi_delete(del);
  EXPECT_EQ(m.size(), es.size() / 2);
  EXPECT_TRUE(m.check_invariants());
  for (size_t i = 0; i < es.size(); ++i)
    EXPECT_EQ(m.contains(es[i].key), i % 2 == 1) << i;
}

TEST(PabstBatch, MultiUpdateChangesValuesAndAug) {
  auto es = sorted_entries(5000, 59);
  auto m = MaxMap::from_sorted(es);
  std::vector<MaxMap::entry_t> ups;
  for (size_t i = 0; i < es.size(); i += 5) ups.push_back({es[i].key, -es[i].val});
  m.multi_update(ups);
  EXPECT_TRUE(m.check_invariants());
  // Recompute brute-force max to confirm augmentation was refreshed.
  int64_t expect = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < es.size(); ++i)
    expect = std::max(expect, i % 5 == 0 ? -es[i].val : es[i].val);
  EXPECT_EQ(m.aug_all(), expect);
}

TEST(PabstBatch, MultiUpdateIgnoresMissingKeys) {
  auto es = sorted_entries(100, 61);
  auto m = MaxMap::from_sorted(es);
  std::vector<MaxMap::entry_t> ups = {{-5, 1}, {1, 1}, {999999, 1}};  // all absent (keys even)
  m.multi_update(ups);
  EXPECT_EQ(m.size(), es.size());
  auto flat = m.flatten();
  for (size_t i = 0; i < es.size(); ++i) ASSERT_EQ(flat[i].val, es[i].val);
}

TEST(PabstBatch, MultiFind) {
  auto es = sorted_entries(8000, 67);
  auto m = MaxMap::from_sorted(es);
  std::vector<int64_t> keys;
  for (size_t i = 0; i < es.size(); i += 4) keys.push_back(es[i].key);
  keys.push_back(es.back().key + 2);  // absent
  std::sort(keys.begin(), keys.end());
  auto res = m.multi_find(keys);
  ASSERT_EQ(res.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] > es.back().key) {
      EXPECT_FALSE(res[i].has_value());
    } else {
      ASSERT_TRUE(res[i].has_value()) << keys[i];
      EXPECT_EQ(*res[i], es[static_cast<size_t>(keys[i] / 2)].val);
    }
  }
}

TEST(PabstBatch, LargeBatchesRunParallel) {
  // Exceeds kTreeGrain so the par_do paths execute.
  constexpr size_t n = 200000;
  std::vector<MaxMap::entry_t> es(n);
  for (size_t i = 0; i < n; ++i) es[i] = {static_cast<int64_t>(i), static_cast<int64_t>(i % 97)};
  MaxMap m;
  m.multi_insert(es);
  EXPECT_EQ(m.size(), n);
  EXPECT_TRUE(m.check_invariants());
  EXPECT_EQ(m.aug_all(), 96);
  std::vector<int64_t> keys(n / 2);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(2 * i);
  m.multi_delete(keys);
  EXPECT_EQ(m.size(), n - keys.size());
  EXPECT_TRUE(m.check_invariants());
}

}  // namespace
