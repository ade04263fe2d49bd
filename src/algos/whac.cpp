#include "algos/whac.h"

#include <algorithm>

#include "core/fenwick.h"
#include "parallel/random.h"
#include "parallel/sort.h"
#include "rangetree/range_tree2d.h"

namespace pp {

namespace {

struct uv_point {
  int64_t u;    // t + p
  int64_t v;    // t - p
  uint32_t id;  // original index
};

std::vector<uv_point> to_uv_sorted(std::span<const mole> moles) {
  auto pts = tabulate<uv_point>(moles.size(), [&](size_t i) {
    return uv_point{moles[i].t + moles[i].p, moles[i].t - moles[i].p, static_cast<uint32_t>(i)};
  });
  sort_inplace(std::span<uv_point>(pts), [](const uv_point& a, const uv_point& b) {
    if (a.u != b.u) return a.u < b.u;
    if (a.v != b.v) return a.v < b.v;
    return a.id < b.id;
  });
  return pts;
}

// qx[i] = number of points with u strictly smaller than point i's u, so
// ties in u never dominate each other.
std::vector<uint32_t> strict_u_bounds(const std::vector<uv_point>& pts) {
  size_t n = pts.size();
  std::vector<uint32_t> qx(n);
  parallel_for(0, n, [&](size_t i) {
    size_t lo = i;
    // walk back over the tie group; groups are contiguous after sorting
    while (lo > 0 && pts[lo - 1].u == pts[i].u) --lo;
    qx[i] = static_cast<uint32_t>(lo);
  });
  return qx;
}

}  // namespace

whac_result whac_sequential(std::span<const mole> moles, const context& ctx) {
  run_scope scope(ctx);
  size_t n = moles.size();
  whac_result res;
  res.dp.assign(n, 0);
  if (n == 0) return res;
  auto pts = to_uv_sorted(moles);
  auto vvals = tabulate<int64_t>(n, [&](size_t i) { return pts[i].v; });
  auto vr = compute_y_ranks(std::span<const int64_t>(vvals));
  fenwick_max<int64_t> fw(n, 0);
  int64_t best = 0;
  // Process u-tie groups together: first query everyone in the group, then
  // insert the group's dp values (ties must not see each other).
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j < n && pts[j].u == pts[i].u) ++j;
    for (size_t k = i; k < j; ++k) {
      int64_t dp = 1 + std::max<int64_t>(fw.prefix_max(vr[k]), 0);
      res.dp[pts[k].id] = static_cast<int32_t>(dp);
      best = std::max(best, dp);
    }
    for (size_t k = i; k < j; ++k) fw.raise(vr[k], res.dp[pts[k].id]);
    i = j;
  }
  res.best = best;
  return res;
}

whac_result whac_bruteforce(std::span<const mole> moles) {
  size_t n = moles.size();
  whac_result res;
  res.dp.assign(n, 0);
  // O(n^2): dp in any topological order of the strict dominance; iterate to
  // fixpoint over u-sorted order (single pass suffices since u is sorted).
  auto pts = to_uv_sorted(moles);
  int64_t best = 0;
  for (size_t i = 0; i < n; ++i) {
    int32_t b = 0;
    for (size_t j = 0; j < i; ++j) {
      if (pts[j].u < pts[i].u && pts[j].v < pts[i].v)
        b = std::max(b, res.dp[pts[j].id]);
    }
    res.dp[pts[i].id] = 1 + b;
    best = std::max<int64_t>(best, 1 + b);
  }
  res.best = best;
  return res;
}

whac_result whac_parallel(std::span<const mole> moles, const context& ctx) {
  run_scope scope(ctx);
  size_t n = moles.size();
  whac_result res;
  res.dp.assign(n, 0);
  if (n == 0) return res;
  auto pts = to_uv_sorted(moles);
  auto vvals = tabulate<int64_t>(n, [&](size_t i) { return pts[i].v; });
  auto vr = compute_y_ranks(std::span<const int64_t>(vvals));
  auto qx = strict_u_bounds(pts);
  auto dom = dominance_dp(vr, qx, {}, ctx);
  parallel_for(0, n, [&](size_t i) { res.dp[pts[i].id] = dom.dp[i]; });
  res.best = dom.best;
  res.stats = dom.stats;
  return res;
}

std::vector<mole> random_moles(size_t n, int64_t t_range, int64_t p_range, uint64_t seed) {
  random_stream rs(seed);
  return tabulate<mole>(n, [&](size_t i) {
    return mole{rs.ith_range(2 * i, 0, std::max<int64_t>(t_range, 1) - 1),
                rs.ith_range(2 * i + 1, 0, std::max<int64_t>(p_range, 1) - 1)};
  });
}

}  // namespace pp
