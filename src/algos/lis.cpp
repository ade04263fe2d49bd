#include "algos/lis.h"

#include <algorithm>

#include "core/fenwick.h"
#include "parallel/random.h"
#include "rangetree/range_tree2d.h"

namespace pp {

namespace {

lis_result lis_seq_impl(std::span<const int64_t> a, std::span<const int32_t> w) {
  size_t n = a.size();
  lis_result res;
  res.dp.assign(n, 0);
  if (n == 0) return res;
  auto yr = compute_y_ranks(a);
  // dp[i] = w_i + max(0, max_{j<i, a_j<a_i} dp[j]); prefix-max Fenwick over
  // value ranks, processed in sequence order.
  fenwick_max<int64_t> fw(n, 0);
  int64_t best = 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t base = fw.prefix_max(yr[i]);
    int64_t dp = (w.empty() ? 1 : w[i]) + std::max<int64_t>(base, 0);
    res.dp[i] = static_cast<int32_t>(dp);
    fw.raise(yr[i], dp);
    best = std::max(best, dp);
  }
  res.length = best;
  return res;
}

}  // namespace

lis_result lis_sequential(std::span<const int64_t> a, const context& ctx) {
  run_scope scope(ctx);
  return lis_seq_impl(a, {});
}

lis_result lis_sequential_weighted(std::span<const int64_t> a, std::span<const int32_t> w,
                                   const context& ctx) {
  run_scope scope(ctx);
  return lis_seq_impl(a, w);
}

lis_result lis_parallel(std::span<const int64_t> a, const context& ctx) {
  return lis_parallel_weighted(a, {}, ctx);
}

lis_result lis_parallel_weighted(std::span<const int64_t> a, std::span<const int32_t> w,
                                 const context& ctx) {
  run_scope scope(ctx);
  size_t n = a.size();
  auto yr = compute_y_ranks(a);
  auto qx = tabulate<uint32_t>(n, [](size_t i) { return static_cast<uint32_t>(i); });
  auto dom = dominance_dp(yr, qx, w, ctx);
  lis_result res;
  res.dp = std::move(dom.dp);
  res.length = dom.best;
  res.stats = dom.stats;
  return res;
}

std::vector<uint32_t> lis_reconstruct(std::span<const int64_t> a, std::span<const int32_t> dp) {
  if (a.empty()) return {};
  uint32_t cur = 0;
  for (uint32_t i = 1; i < a.size(); ++i)
    if (dp[i] > dp[cur]) cur = i;
  std::vector<uint32_t> out;
  out.reserve(dp[cur]);
  out.push_back(cur);
  int32_t need = dp[cur] - 1;
  int64_t bound = a[cur];
  for (uint32_t i = cur; i-- > 0 && need > 0;) {
    if (dp[i] == need && a[i] < bound) {
      out.push_back(i);
      bound = a[i];
      --need;
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<int64_t> lis_segment_pattern(size_t n, size_t segments, uint64_t seed) {
  if (segments == 0) segments = 1;
  random_stream rs(seed);
  size_t seg_len = (n + segments - 1) / segments;
  // Run s spans values around s * step, each run decreasing; noise keeps
  // the pattern "rough" as in the paper (Fig. 10 a-b).
  int64_t step = static_cast<int64_t>(4 * seg_len);
  return tabulate<int64_t>(n, [&](size_t i) {
    size_t s = i / seg_len;
    size_t pos = i % seg_len;
    int64_t base = static_cast<int64_t>(s) * step;
    int64_t desc = static_cast<int64_t>(seg_len - pos) * 2;
    int64_t noise = rs.ith_range(i, 0, 1);
    return base + desc + noise;
  });
}

std::vector<int64_t> lis_line_pattern(size_t n, int64_t slope, int64_t noise, uint64_t seed) {
  random_stream rs(seed);
  return tabulate<int64_t>(n, [&](size_t i) {
    return slope * static_cast<int64_t>(i) + rs.ith_range(i, 0, std::max<int64_t>(noise, 1) - 1);
  });
}

}  // namespace pp
