// Tests for reduce / scan / pack / tabulate / min_index / write_min.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "parallel/primitives.h"
#include "test_backends.h"

namespace {

using pp::backend_kind;

class PrimTest : public ::testing::TestWithParam<std::tuple<backend_kind, size_t>> {
 protected:
  // Every test body runs under the parametrized backend.
  pp::scoped_context scope_{pp::context{}.with_backend(std::get<0>(GetParam()))};
  size_t n() const { return std::get<1>(GetParam()); }

  std::vector<int64_t> random_values(uint64_t seed) const {
    std::mt19937_64 gen(seed);
    std::uniform_int_distribution<int64_t> dist(-1000, 1000);
    std::vector<int64_t> xs(n());
    for (auto& x : xs) x = dist(gen);
    return xs;
  }
};

TEST_P(PrimTest, ReduceAddMatchesStd) {
  auto xs = random_values(1);
  int64_t expect = std::accumulate(xs.begin(), xs.end(), int64_t{0});
  EXPECT_EQ(pp::reduce_add(std::span<const int64_t>(xs)), expect);
}

TEST_P(PrimTest, ReduceMaxMatchesStd) {
  auto xs = random_values(2);
  if (xs.empty()) return;
  int64_t expect = *std::max_element(xs.begin(), xs.end());
  int64_t got = pp::reduce(std::span<const int64_t>(xs), std::numeric_limits<int64_t>::min(),
                           [](int64_t a, int64_t b) { return std::max(a, b); });
  EXPECT_EQ(got, expect);
}

TEST_P(PrimTest, ScanExclusiveMatchesSerial) {
  auto xs = random_values(3);
  auto expect = xs;
  int64_t acc = 0;
  for (auto& x : expect) {
    int64_t next = acc + x;
    x = acc;
    acc = next;
  }
  auto got = xs;
  int64_t total = pp::scan_exclusive_add(std::span<int64_t>(got));
  EXPECT_EQ(total, acc);
  EXPECT_EQ(got, expect);
}

TEST_P(PrimTest, ScanInclusiveMatchesSerial) {
  auto xs = random_values(4);
  auto expect = xs;
  std::partial_sum(expect.begin(), expect.end(), expect.begin());
  auto got = xs;
  int64_t total =
      pp::scan_inclusive(std::span<int64_t>(got), int64_t{0}, std::plus<int64_t>{});
  if (!xs.empty()) EXPECT_EQ(total, expect.back());
  EXPECT_EQ(got, expect);
}

TEST_P(PrimTest, PackKeepsOrderAndContent) {
  auto xs = random_values(5);
  auto got = pp::pack(std::span<const int64_t>(xs), [&](size_t i) { return xs[i] % 3 == 0; });
  std::vector<int64_t> expect;
  for (auto x : xs)
    if (x % 3 == 0) expect.push_back(x);
  EXPECT_EQ(got, expect);
}

TEST_P(PrimTest, PackIndex) {
  auto xs = random_values(6);
  auto got = pp::pack_index(xs.size(), [&](size_t i) { return xs[i] > 0; });
  std::vector<size_t> expect;
  for (size_t i = 0; i < xs.size(); ++i)
    if (xs[i] > 0) expect.push_back(i);
  EXPECT_EQ(got, expect);
}

TEST_P(PrimTest, FilterMatchesPack) {
  auto xs = random_values(7);
  auto a = pp::filter(std::span<const int64_t>(xs), [](int64_t x) { return x < 0; });
  std::vector<int64_t> expect;
  for (auto x : xs)
    if (x < 0) expect.push_back(x);
  EXPECT_EQ(a, expect);
}

TEST_P(PrimTest, TabulateAndIota) {
  auto t = pp::tabulate<size_t>(n(), [](size_t i) { return i * 2; });
  auto io = pp::iota<int64_t>(n());
  for (size_t i = 0; i < n(); ++i) {
    ASSERT_EQ(t[i], i * 2);
    ASSERT_EQ(io[i], static_cast<int64_t>(i));
  }
}

TEST_P(PrimTest, MinIndexFirstOnTies) {
  if (n() == 0) return;
  auto xs = random_values(8);
  size_t got = pp::min_index(std::span<const int64_t>(xs));
  size_t expect = static_cast<size_t>(std::min_element(xs.begin(), xs.end()) - xs.begin());
  EXPECT_EQ(got, expect);
  EXPECT_EQ(xs[pp::max_index(std::span<const int64_t>(xs))],
            *std::max_element(xs.begin(), xs.end()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrimTest,
    ::testing::Combine(::testing::ValuesIn(pp_test::kBackends),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{2}, size_t{100},
                                         size_t{4097}, size_t{100000})),
    [](const auto& info) {
      return std::string(pp::backend_name(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Reduce, HonorsContextGrain) {
  // reduce_map resolves its grain like parallel_for: ctx.grain (--grain /
  // PP_GRAIN) above the input size keeps the whole reduction on the
  // calling thread, even at 4 workers.
  pp::context ctx =
      pp::context{}.with_backend(backend_kind::native).with_workers(4).with_grain(1'000'000);
  pp::run_scope scope(ctx);
  std::mutex m;
  std::set<std::thread::id> seen;
  int64_t sum = pp::reduce_map(
      size_t{0}, size_t{100'000}, int64_t{0},
      [&](size_t i) {
        std::lock_guard<std::mutex> lk(m);
        seen.insert(std::this_thread::get_id());
        return static_cast<int64_t>(i);
      },
      std::plus<int64_t>{});
  EXPECT_EQ(sum, int64_t{99'999} * 100'000 / 2);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), std::this_thread::get_id());
}

TEST(WriteMin, ConcurrentWritersConverge) {
  std::atomic<int64_t> target{1 << 30};
  pp::parallel_for(0, 100000, [&](size_t i) {
    pp::write_min(&target, static_cast<int64_t>(i * 2654435761u % 1000003));
  });
  // minimum of i*2654435761 mod 1000003 over i in [0,1e5): verify by scan
  int64_t expect = 1 << 30;
  for (size_t i = 0; i < 100000; ++i)
    expect = std::min<int64_t>(expect, static_cast<int64_t>(i * 2654435761u % 1000003));
  EXPECT_EQ(target.load(), expect);
}

TEST(WriteMax, ConcurrentWritersConverge) {
  std::atomic<int64_t> target{-1};
  pp::parallel_for(0, 50000, [&](size_t i) {
    pp::write_max(&target, static_cast<int64_t>(i % 4999));
  });
  EXPECT_EQ(target.load(), 4998);
}

}  // namespace
