// google-benchmark microbenchmarks for the substrates (Appendix A
// structures): PA-BST point/batch/range ops, 2D range tree query/update,
// TAS-tree marks, Fenwick prefix-max, and the pivot multimap.
#include <benchmark/benchmark.h>

#include <limits>
#include <random>

#include "core/fenwick.h"
#include "pabst/augmented_map.h"
#include "pabst/multimap.h"
#include "parallel/random.h"
#include "rangetree/policies.h"
#include "rangetree/range_tree2d.h"
#include "tastree/tas_tree.h"

namespace {

using MaxEntry = pp::max_val_entry<int64_t, int64_t, std::numeric_limits<int64_t>::min()>;
using MaxMap = pp::augmented_map<MaxEntry>;

MaxMap build_map(size_t n) {
  auto es = pp::tabulate<MaxMap::entry_t>(n, [](size_t i) {
    return MaxMap::entry_t{static_cast<int64_t>(2 * i), static_cast<int64_t>(pp::hash64(i) % 1000)};
  });
  return MaxMap::from_sorted(es);
}

void BM_PabstBuild(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto m = build_map(n);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_PabstBuild)->Arg(1 << 14)->Arg(1 << 18);

void BM_PabstAugRange(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto m = build_map(n);
  uint64_t i = 0;
  for (auto _ : state) {
    int64_t lo = static_cast<int64_t>(pp::hash64(i++) % (2 * n));
    benchmark::DoNotOptimize(m.aug_range(lo, lo + 1000));
  }
}
BENCHMARK(BM_PabstAugRange)->Arg(1 << 18);

void BM_PabstMultiInsert(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto m = build_map(n);
    auto batch = pp::tabulate<MaxMap::entry_t>(n / 4, [&](size_t i) {
      return MaxMap::entry_t{static_cast<int64_t>(2 * i * 4 + 1), 7};
    });
    state.ResumeTiming();
    m.multi_insert(batch);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n / 4));
}
BENCHMARK(BM_PabstMultiInsert)->Arg(1 << 18);

void BM_RangeTreeQuery(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto vals = pp::tabulate<int64_t>(n, [](size_t i) { return static_cast<int64_t>(pp::hash64(i)); });
  auto yr = pp::compute_y_ranks(std::span<const int64_t>(vals));
  pp::range_tree2d<pp::dom_agg_rightmost> t(
      yr, [](uint32_t id) { return pp::dom_agg_rightmost::unfinished_leaf(id); }, 1);
  uint64_t i = 0;
  for (auto _ : state) {
    uint32_t q = static_cast<uint32_t>(pp::hash64(i++) % n);
    benchmark::DoNotOptimize(t.query_prefix(q, yr[q]));
  }
}
BENCHMARK(BM_RangeTreeQuery)->Arg(1 << 16)->Arg(1 << 20);

void BM_RangeTreeUpdate(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto vals = pp::tabulate<int64_t>(n, [](size_t i) { return static_cast<int64_t>(pp::hash64(i)); });
  auto yr = pp::compute_y_ranks(std::span<const int64_t>(vals));
  pp::range_tree2d<pp::dom_agg_rightmost> t(
      yr, [](uint32_t id) { return pp::dom_agg_rightmost::unfinished_leaf(id); }, 1);
  uint64_t i = 0;
  for (auto _ : state) {
    uint32_t id = static_cast<uint32_t>(pp::hash64(i++) % n);
    t.update(id, pp::dom_agg_rightmost::finished_leaf(id, static_cast<int32_t>(i % 100)));
  }
}
BENCHMARK(BM_RangeTreeUpdate)->Arg(1 << 16)->Arg(1 << 20);

void BM_TasTreeMark(benchmark::State& state) {
  uint32_t m = static_cast<uint32_t>(state.range(0));
  std::vector<uint32_t> counts = {m};
  uint32_t leaf = 0;
  const pp::context ctx{};
  pp::tas_forest f(counts, ctx);
  for (auto _ : state) {
    if (leaf == m) {
      state.PauseTiming();
      f = pp::tas_forest(counts, ctx);
      leaf = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(f.mark(0, leaf++));
  }
}
BENCHMARK(BM_TasTreeMark)->Arg(1 << 10)->Arg(1 << 16);

void BM_FenwickRaiseQuery(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  pp::fenwick_max<int64_t> fw(n, 0);
  uint64_t i = 0;
  for (auto _ : state) {
    size_t p = pp::hash64(i) % n;
    fw.raise(p, static_cast<int64_t>(i));
    benchmark::DoNotOptimize(fw.prefix_max(p));
    ++i;
  }
}
BENCHMARK(BM_FenwickRaiseQuery)->Arg(1 << 20);

void BM_MultimapInsertExtract(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    pp::pivot_multimap<uint32_t, uint32_t> mm;
    auto pairs = pp::tabulate<pp::pivot_multimap<uint32_t, uint32_t>::pair_t>(n, [&](size_t i) {
      return pp::pivot_multimap<uint32_t, uint32_t>::pair_t{
          static_cast<uint32_t>(pp::hash64(i) % (n / 8 + 1)), static_cast<uint32_t>(i)};
    });
    mm.multi_insert(std::move(pairs));
    auto keys = pp::tabulate<uint32_t>(n / 16, [&](size_t i) { return static_cast<uint32_t>(i); });
    benchmark::DoNotOptimize(mm.extract_buckets(keys).size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_MultimapInsertExtract)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
