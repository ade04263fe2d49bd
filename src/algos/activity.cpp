#include "algos/activity.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/cancel.h"
#include "core/fenwick.h"
#include "core/pivot_buckets.h"
#include "parallel/random.h"
#include "parallel/sort.h"

namespace pp {

namespace {

// first end-order position whose end exceeds s (activities end-sorted):
// the dp query range is exactly [0, that position).
size_t compat_prefix(std::span<const int64_t> ends, int64_t s) {
  return static_cast<size_t>(std::upper_bound(ends.begin(), ends.end(), s) - ends.begin());
}

// compat_prefix(ends, s) given that every end before position k is <= s:
// an exponential search forward from k, O(log(result - k)) steps.
size_t compat_prefix_from(std::span<const int64_t> ends, size_t k, int64_t s) {
  size_t step = 1;
  while (k + step < ends.size() && ends[k + step] <= s) {
    k += step;
    step *= 2;
  }
  auto hi = ends.begin() + static_cast<ptrdiff_t>(std::min(k + step, ends.size()));
  return static_cast<size_t>(std::upper_bound(ends.begin() + static_cast<ptrdiff_t>(k), hi, s) -
                             ends.begin());
}

std::vector<int64_t> ends_of(std::span<const activity> acts) {
  return tabulate<int64_t>(acts.size(), [&](size_t i) { return acts[i].end; });
}

void check_sorted(std::span<const activity> acts) {
  for (size_t i = 0; i < acts.size(); ++i) {
    assert(acts[i].start < acts[i].end && "activities need positive durations");
    if (i > 0) assert(acts[i - 1].end <= acts[i].end && "activities must be end-sorted");
  }
}

}  // namespace

void sort_activities(std::vector<activity>& acts) {
  sort_inplace(std::span<activity>(acts), [](const activity& a, const activity& b) {
    if (a.end != b.end) return a.end < b.end;
    return a.start < b.start;
  });
}

activity_result activity_select_seq(std::span<const activity> acts, const context& ctx) {
  run_scope scope(ctx);
  check_sorted(acts);
  size_t n = acts.size();
  activity_result res;
  res.dp.assign(n, 0);
  auto ends = ends_of(acts);
  fenwick_max<int64_t> fw(n, 0);
  int64_t best = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t k = compat_prefix(ends, acts[i].start);  // k <= i by positive durations
    int64_t dp = acts[i].weight + std::max<int64_t>(fw.prefix_max(k), 0);
    res.dp[i] = dp;
    fw.raise(i, dp);
    best = std::max(best, dp);
  }
  res.best = best;
  return res;
}

// --- Type 1 (Algorithm 2) ---------------------------------------------------------
//
// The activity set is static and a round finishes a prefix of the start
// order, so Algorithm 2's two trees become flat arrays. T_time is the ids
// in start order with suffix minima of end: the unfinished activities are
// always the suffix [p, n), the earliest unfinished end is sufmin[p], and
// the frontier (every unfinished activity starting before it, Lemma 4.1)
// is [p, q) for one lower_bound. T_DP is an atomic prefix-max Fenwick over
// the end order, and each activity's query range [0, kpre) is computed
// once, up front: kpre ascends along the start order, so a task walks a
// block of it forward (O(n) work on typical inputs, O(n log n) at worst).

activity_result activity_select_type1(std::span<const activity> acts, const context& ctx) {
  run_scope scope(ctx);
  check_sorted(acts);
  size_t n = acts.size();
  activity_result res;
  res.dp.assign(n, 0);
  if (n == 0) return res;

  auto ends = ends_of(acts);
  auto sidx = sort_indices(n, [&](uint32_t a, uint32_t b) {
    if (acts[a].start != acts[b].start) return acts[a].start < acts[b].start;
    return a < b;
  });
  std::vector<int64_t> starts(n), sufmin(n + 1, std::numeric_limits<int64_t>::max());
  std::vector<uint32_t> kpre(n);
  constexpr size_t kBlock = 1024;
  parallel_for(0, (n + kBlock - 1) / kBlock, [&](size_t b) {
    size_t k = 0;
    for (size_t j = b * kBlock; j < std::min(n, (b + 1) * kBlock); ++j) {
      starts[j] = acts[sidx[j]].start;
      k = compat_prefix_from(ends, k, starts[j]);
      kpre[j] = static_cast<uint32_t>(k);
    }
  }, detail::grain_for_cost(kBlock));
  for (size_t j = n; j-- > 0;) sufmin[j] = std::min(sufmin[j + 1], acts[sidx[j]].end);

  atomic_fenwick_max<int64_t> fw(n);
  size_t p = 0;
  while (p < n) {
    cancel_point();  // between frontier rounds: quiescent, cancellable
    size_t q = static_cast<size_t>(std::lower_bound(starts.begin() + p, starts.end(), sufmin[p]) -
                                   starts.begin());
    // [p, q) is nonempty (it holds the argmin) and an antichain: every
    // member ends after every member's start, so each one's end position
    // is >= every kpre in the round. A raise therefore never touches a
    // Fenwick node another member's query reads, and lines 6 and 7 of
    // Algorithm 2 share one loop.
    parallel_for(p, q, [&](size_t j) {
      uint32_t id = sidx[j];
      res.dp[id] = acts[id].weight + std::max<int64_t>(fw.prefix_max(kpre[j]), 0);
      fw.raise(id, res.dp[id]);
    });
    res.stats.record_frontier(q - p);
    p = q;
  }

  int64_t best = 0;
  for (auto v : res.dp) best = std::max(best, v);
  res.best = best;
  return res;
}

// --- Type 2 (exact pivots, Lemma 5.1) --------------------------------------------

activity_result activity_select_type2(std::span<const activity> acts, const context& ctx) {
  run_scope scope(ctx);
  check_sorted(acts);
  size_t n = acts.size();
  activity_result res;
  res.dp.assign(n, 0);
  if (n == 0) return res;
  constexpr uint32_t kNoPivot = 0xFFFFFFFFu;

  auto ends = ends_of(acts);
  // prefix argmax of start over the end order: pam[k] = argmax start among
  // the first k activities (used to find the latest-starting compatible
  // predecessor = the pivot).
  std::vector<uint32_t> pam(n + 1, kNoPivot);
  for (size_t k = 0; k < n; ++k) {
    pam[k + 1] = pam[k];
    if (pam[k] == kNoPivot || acts[k].start > acts[pam[k]].start)
      pam[k + 1] = static_cast<uint32_t>(k);
  }

  std::vector<uint32_t> pivot(n);
  std::vector<size_t> kpre(n);
  parallel_for(0, n, [&](size_t i) {
    kpre[i] = compat_prefix(ends, acts[i].start);
    pivot[i] = kpre[i] == 0 ? kNoPivot : pam[kpre[i]];
  });

  // T_pivot (Sec. 5.1): every activity sleeps on its pivot from the start,
  // since pivots are static here; per-pivot buckets (core/pivot_buckets.h).
  pivot_buckets tpivot(n);
  parallel_for(0, n, [&](size_t i) {
    if (pivot[i] != kNoPivot) tpivot.insert(pivot[i], static_cast<uint32_t>(i));
  });

  atomic_fenwick_max<int64_t> fw(n);
  auto frontier32 = tabulate<uint32_t>(n, [](size_t i) { return static_cast<uint32_t>(i); });
  frontier32 = pack(std::span<const uint32_t>(frontier32),
                    [&](size_t i) { return pivot[i] == kNoPivot; });
  std::vector<uint32_t> woken, off;
  while (!frontier32.empty()) {
    cancel_point();  // between wake-up rounds: quiescent, cancellable
    res.stats.record_frontier(frontier32.size());
    res.stats.wakeup_attempts += frontier32.size();
    parallel_for(0, frontier32.size(), [&](size_t k) {
      uint32_t id = frontier32[k];
      res.dp[id] = acts[id].weight + std::max<int64_t>(fw.prefix_max(kpre[id]), 0);
    });
    parallel_for(0, frontier32.size(), [&](size_t k) {
      uint32_t id = frontier32[k];
      fw.raise(id, res.dp[id]);
    });
    sort_inplace(std::span<uint32_t>(frontier32));
    tpivot.extract(frontier32, woken, off);
    frontier32.swap(woken);
  }

  int64_t best = 0;
  for (auto v : res.dp) best = std::max(best, v);
  res.best = best;
  return res;
}

// --- generator --------------------------------------------------------------------

std::vector<activity> random_activities(size_t n, int64_t t_range, double mean_len,
                                        double sd_len, int64_t max_weight, uint64_t seed) {
  random_stream rs(seed);
  auto acts = tabulate<activity>(n, [&](size_t i) {
    int64_t start = rs.ith_range(4 * i, 0, std::max<int64_t>(t_range, 2) - 1);
    // Box-Muller from two hashed uniforms, truncated below at 1.
    double u1 = std::max(rs.ith_double(4 * i + 1), 1e-12);
    double u2 = rs.ith_double(4 * i + 2);
    double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    int64_t len = std::max<int64_t>(1, static_cast<int64_t>(std::llround(mean_len + sd_len * z)));
    int64_t w = rs.ith_range(4 * i + 3, 1, std::max<int64_t>(max_weight, 1));
    return activity{start, start + len, w};
  });
  sort_activities(acts);
  return acts;
}

}  // namespace pp
