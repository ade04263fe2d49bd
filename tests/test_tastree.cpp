// Tests for TAS trees: completion detection must fire exactly once per
// tree, no matter the marking order or concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <vector>

#include "parallel/random.h"
#include "tastree/tas_tree.h"

namespace {

// The arenas below are built under the library's default context.
const pp::context kCtx{};

TEST(TasTree, SingleLeafCompletesImmediately) {
  std::vector<uint32_t> counts = {1};
  pp::tas_forest f(counts, kCtx);
  EXPECT_FALSE(f.empty_tree(0));
  EXPECT_TRUE(f.mark(0, 0));
}

TEST(TasTree, EmptyTreeReported) {
  std::vector<uint32_t> counts = {0, 3, 0};
  pp::tas_forest f(counts, kCtx);
  EXPECT_TRUE(f.empty_tree(0));
  EXPECT_FALSE(f.empty_tree(1));
  EXPECT_TRUE(f.empty_tree(2));
}

TEST(TasTree, LastMarkWinsSequential) {
  for (uint32_t m : {2u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 100u, 1000u}) {
    for (uint64_t seed = 0; seed < 5; ++seed) {
      std::vector<uint32_t> counts = {m};
      pp::tas_forest f(counts, kCtx);
      auto order = pp::random_permutation(m, seed);
      int completions = 0;
      for (uint32_t i = 0; i < m; ++i) {
        bool complete = f.mark(0, order[i]);
        if (complete) {
          completions++;
          EXPECT_EQ(i, m - 1) << "completed early: m=" << m << " seed=" << seed;
        }
      }
      EXPECT_EQ(completions, 1) << "m=" << m << " seed=" << seed;
    }
  }
}

TEST(TasTree, LeafFlagsVisible) {
  std::vector<uint32_t> counts = {4};
  pp::tas_forest f(counts, kCtx);
  EXPECT_FALSE(f.leaf_marked(0, 2));
  f.mark(0, 2);
  EXPECT_TRUE(f.leaf_marked(0, 2));
  EXPECT_FALSE(f.leaf_marked(0, 0));
}

TEST(TasTree, ConcurrentMarksExactlyOneCompletion) {
  // Stress: all leaves marked in parallel; exactly one caller sees true.
  for (uint32_t m : {2u, 16u, 1000u, 100000u}) {
    std::vector<uint32_t> counts = {m};
    pp::tas_forest f(counts, kCtx);
    std::atomic<int> completions{0};
    pp::parallel_for(0, m, [&](size_t leaf) {
      if (f.mark(0, static_cast<uint32_t>(leaf))) completions.fetch_add(1);
    });
    EXPECT_EQ(completions.load(), 1) << "m=" << m;
  }
}

TEST(TasTree, ManyTreesConcurrently) {
  constexpr size_t trees = 500;
  std::mt19937_64 gen(3);
  std::vector<uint32_t> counts(trees);
  size_t total = 0;
  for (auto& c : counts) {
    c = 1 + static_cast<uint32_t>(gen() % 64);
    total += c;
  }
  pp::tas_forest f(counts, kCtx);
  // Interleave marks of all trees in one flat parallel loop.
  std::vector<std::pair<uint32_t, uint32_t>> marks;
  marks.reserve(total);
  for (uint32_t t = 0; t < trees; ++t)
    for (uint32_t l = 0; l < counts[t]; ++l) marks.push_back({t, l});
  std::shuffle(marks.begin(), marks.end(), gen);
  std::vector<std::atomic<int>> completions(trees);
  for (auto& c : completions) c.store(0);
  pp::parallel_for(0, marks.size(), [&](size_t i) {
    if (f.mark(marks[i].first, marks[i].second)) completions[marks[i].first].fetch_add(1);
  }, 16);
  for (size_t t = 0; t < trees; ++t) EXPECT_EQ(completions[t].load(), 1) << "tree " << t;
}

TEST(TasTree, PartialMarksDoNotComplete) {
  std::vector<uint32_t> counts = {10};
  pp::tas_forest f(counts, kCtx);
  for (uint32_t l = 0; l < 9; ++l) EXPECT_FALSE(f.mark(0, l)) << l;
  EXPECT_TRUE(f.mark(0, 9));
}

}  // namespace
