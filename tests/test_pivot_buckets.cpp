// Tests for the per-pivot buckets of the Type-2 wake-up strategy.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "core/context.h"
#include "core/pivot_buckets.h"
#include "parallel/random.h"

namespace {

using pp::pivot_buckets;

std::vector<uint32_t> extract(pivot_buckets& pb, std::vector<uint32_t> pivots) {
  std::vector<uint32_t> out, off;
  pb.extract(pivots, out, off);
  return out;
}

TEST(PivotBuckets, RandomizedAgainstStdMultimap) {
  // Objects sleep on random pivots, are woken, and sleep again, as in the
  // dominance engine. The extraction must match the reference exactly:
  // bucket by bucket in the order the pivots are given, each ascending.
  constexpr uint32_t kPivots = 50, kObjects = 4000;
  std::mt19937_64 gen(5);
  pivot_buckets pb(kObjects);
  std::multimap<uint32_t, uint32_t> ref;
  std::vector<uint32_t> awake(kObjects);
  for (uint32_t o = 0; o < kObjects; ++o) awake[o] = o;
  for (int round = 0; round < 30; ++round) {
    std::shuffle(awake.begin(), awake.end(), gen);
    size_t batch = std::min<size_t>(awake.size(), 1 + gen() % 500);
    for (size_t i = 0; i < batch; ++i) {
      uint32_t p = static_cast<uint32_t>(gen() % kPivots);
      pb.insert(p, awake[i]);
      ref.emplace(p, awake[i]);
    }
    awake.erase(awake.begin(), awake.begin() + static_cast<std::ptrdiff_t>(batch));
    std::set<uint32_t> keyset;
    for (int j = 0; j < 5; ++j) keyset.insert(static_cast<uint32_t>(gen() % kPivots));
    std::vector<uint32_t> keys(keyset.begin(), keyset.end());
    std::shuffle(keys.begin(), keys.end(), gen);
    std::vector<uint32_t> expect;
    for (auto k : keys) {
      std::vector<uint32_t> bucket;
      auto [lo, hi] = ref.equal_range(k);
      for (auto it = lo; it != hi; ++it) bucket.push_back(it->second);
      std::sort(bucket.begin(), bucket.end());
      expect.insert(expect.end(), bucket.begin(), bucket.end());
      ref.erase(k);
    }
    auto got = extract(pb, keys);
    ASSERT_EQ(got, expect) << "round " << round;
    awake.insert(awake.end(), got.begin(), got.end());
  }
}

TEST(PivotBuckets, AbsentAndEmptyPivotsExtractNothing) {
  pivot_buckets pb(10);
  pb.insert(7, 1);
  pb.insert(9, 2);
  std::vector<uint32_t> out = {42}, off;
  pb.extract({}, out, off);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(extract(pb, {0, 8, 3}), (std::vector<uint32_t>{}));
  EXPECT_EQ(extract(pb, {7}), (std::vector<uint32_t>{1}));
  EXPECT_EQ(extract(pb, {7}), (std::vector<uint32_t>{}));  // emptied
  EXPECT_EQ(extract(pb, {9}), (std::vector<uint32_t>{2}));
}

TEST(PivotBuckets, ReinsertedObjectSleepsOnlyOnItsNewPivot) {
  // The dominance engine re-sleeps a woken object on a new pivot; its old
  // list link must not leak into either bucket.
  pivot_buckets pb(10);
  pb.insert(1, 5);
  pb.insert(1, 4);
  pb.insert(2, 7);
  pb.insert(2, 3);
  EXPECT_EQ(extract(pb, {1}), (std::vector<uint32_t>{4, 5}));
  pb.insert(2, 5);
  pb.insert(3, 4);
  EXPECT_EQ(extract(pb, {1}), (std::vector<uint32_t>{}));
  EXPECT_EQ(extract(pb, {3, 2}), (std::vector<uint32_t>{4, 3, 5, 7}));
  EXPECT_EQ(extract(pb, {1, 2, 3}), (std::vector<uint32_t>{}));
}

TEST(PivotBuckets, ConcurrentInserts) {
  // Every insert forks (grain 1) across 4 workers; 100 objects contend on
  // each pivot, and one extra pivot holds a bucket large enough for the
  // parallel sort.
  constexpr uint32_t n = 100'000, kPivots = 1000, kBig = 20'000;
  pp::run_scope scope(
      pp::context{}.with_backend(pp::backend_kind::native).with_workers(4).with_grain(1));
  auto perm = pp::random_permutation(n + kBig, 11);
  auto pivot_of = [&](size_t i) { return i < n ? static_cast<uint32_t>(i % kPivots) : kPivots; };
  pivot_buckets pb(n + kBig);
  pp::parallel_for(0, n + kBig, [&](size_t i) { pb.insert(pivot_of(i), perm[i]); });
  std::vector<std::vector<uint32_t>> expect(kPivots + 1);
  for (size_t i = 0; i < n + kBig; ++i) expect[pivot_of(i)].push_back(perm[i]);
  std::vector<uint32_t> pivots(kPivots + 1);
  for (uint32_t p = 0; p <= kPivots; ++p) pivots[p] = p;
  std::vector<uint32_t> out, off;
  pb.extract(pivots, out, off);
  ASSERT_EQ(out.size(), size_t{n} + kBig);
  for (uint32_t p = 0; p <= kPivots; ++p) {
    std::sort(expect[p].begin(), expect[p].end());
    std::vector<uint32_t> got(out.begin() + off[p], out.begin() + off[p + 1]);
    ASSERT_EQ(got, expect[p]) << "pivot " << p;
  }
  pb.extract(pivots, out, off);
  EXPECT_TRUE(out.empty());
}

}  // namespace
