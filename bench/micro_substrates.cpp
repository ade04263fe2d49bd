// google-benchmark microbenchmarks for the substrates (Appendix A
// structures): 2D range tree query/update, TAS-tree marks, Fenwick
// prefix-max, and the Type-2 pivot buckets.
#include <benchmark/benchmark.h>

#include "core/fenwick.h"
#include "core/pivot_buckets.h"
#include "parallel/random.h"
#include "rangetree/policies.h"
#include "rangetree/range_tree2d.h"
#include "tastree/tas_tree.h"

namespace {

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

void BM_PivotBucketsInsertExtract(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t pivots = n / 8 + 1;
  auto keys = pp::tabulate<uint32_t>(n / 16, [&](size_t i) { return static_cast<uint32_t>(i); });
  std::vector<uint32_t> out, off;
  for (auto _ : state) {
    pp::pivot_buckets pb(n);
    pp::parallel_for(0, n, [&](size_t i) {
      pb.insert(static_cast<uint32_t>(pp::hash64(i) % pivots), static_cast<uint32_t>(i));
    });
    pb.extract(keys, out, off);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_PivotBucketsInsertExtract)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
