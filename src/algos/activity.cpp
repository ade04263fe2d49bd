#include "algos/activity.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/cancel.h"
#include "core/fenwick.h"
#include "core/phase_runner.h"
#include "pabst/augmented_map.h"
#include "pabst/multimap.h"
#include "parallel/random.h"
#include "parallel/sort.h"

namespace pp {

namespace {

constexpr int64_t kNegInf64 = std::numeric_limits<int64_t>::min() / 4;

// first end-order position whose end exceeds s (activities end-sorted):
// the dp query range is exactly [0, that position).
size_t compat_prefix(std::span<const int64_t> ends, int64_t s) {
  return static_cast<size_t>(std::upper_bound(ends.begin(), ends.end(), s) - ends.begin());
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

// --- Type 1, PA-BST version (Algorithm 2) --------------------------------------

activity_result activity_select_type1(std::span<const activity> acts, const context& ctx) {
  run_scope scope(ctx);
  check_sorted(acts);
  size_t n = acts.size();
  activity_result res;
  res.dp.assign(n, 0);
  if (n == 0) return res;

  using tkey = std::pair<int64_t, uint32_t>;
  // T_time: (start, idx) -> end, augmented with the minimum end time.
  using time_entry = min_val_entry<tkey, int64_t, std::numeric_limits<int64_t>::max()>;
  using time_map = augmented_map<time_entry>;
  // T_DP: (end, idx) -> dp, augmented with the maximum dp value.
  using dp_entry = max_val_entry<tkey, int64_t, kNegInf64>;
  using dp_map = augmented_map<dp_entry>;

  auto time_entries = tabulate<time_map::entry_t>(n, [&](size_t i) {
    return time_map::entry_t{{acts[i].start, static_cast<uint32_t>(i)}, acts[i].end};
  });
  sort_inplace(std::span<time_map::entry_t>(time_entries),
               [](const auto& a, const auto& b) { return a.key < b.key; });
  auto ttime = time_map::from_sorted(time_entries);

  auto dp_entries = tabulate<dp_map::entry_t>(n, [&](size_t i) {
    return dp_map::entry_t{{acts[i].end, static_cast<uint32_t>(i)}, kNegInf64};
  });
  sort_inplace(std::span<dp_map::entry_t>(dp_entries),
               [](const auto& a, const auto& b) { return a.key < b.key; });
  auto tdp = dp_map::from_sorted(dp_entries);

  res.stats = run_type1(
      // extract: all unfinished activities starting strictly before the
      // earliest unfinished end time (Lemma 4.1 => exactly the next rank).
      [&]() -> std::vector<time_map::entry_t> {
        if (ttime.empty()) return {};
        int64_t e_x = ttime.aug_all();
        auto frontier = ttime.split_off_le({e_x, 0}, /*inclusive=*/false);
        return frontier.flatten();
      },
      [&](const std::vector<time_map::entry_t>& frontier) {
        size_t m = frontier.size();
        // compute dp values against finished activities only (Line 6)
        std::vector<dp_map::entry_t> ups(m);
        parallel_for(0, m, [&](size_t k) {
          uint32_t idx = frontier[k].key.second;
          int64_t s = frontier[k].key.first;
          int64_t q = tdp.aug_le({s, std::numeric_limits<uint32_t>::max()});
          res.dp[idx] = acts[idx].weight + std::max<int64_t>(q, 0);
          ups[k] = dp_map::entry_t{{acts[idx].end, idx}, res.dp[idx]};
        });
        // publish them (Line 7)
        sort_inplace(std::span<dp_map::entry_t>(ups),
                     [](const auto& a, const auto& b) { return a.key < b.key; });
        tdp.multi_update(ups);
      });

  int64_t best = 0;
  for (auto v : res.dp) best = std::max(best, v);
  res.best = best;
  return res;
}

// --- Type 1, flat-array ablation -------------------------------------------------

activity_result activity_select_type1_flat(std::span<const activity> acts, const context& ctx) {
  run_scope scope(ctx);
  check_sorted(acts);
  size_t n = acts.size();
  activity_result res;
  res.dp.assign(n, 0);
  if (n == 0) return res;

  auto ends = ends_of(acts);
  // ids in start order + suffix minima of end over that order
  auto sidx = sort_indices(n, [&](uint32_t a, uint32_t b) {
    if (acts[a].start != acts[b].start) return acts[a].start < acts[b].start;
    return a < b;
  });
  std::vector<int64_t> starts(n), sufmin(n + 1, std::numeric_limits<int64_t>::max());
  parallel_for(0, n, [&](size_t j) { starts[j] = acts[sidx[j]].start; });
  for (size_t j = n; j-- > 0;) sufmin[j] = std::min(sufmin[j + 1], acts[sidx[j]].end);

  atomic_fenwick_max<int64_t> fw(n, 0);
  size_t p = 0;
  while (p < n) {
    cancel_point();  // between frontier rounds: quiescent, cancellable
    int64_t e_x = sufmin[p];
    size_t q = static_cast<size_t>(std::lower_bound(starts.begin() + p, starts.end(), e_x) -
                                   starts.begin());
    // [p, q) = unfinished with start < e_x; nonempty (the argmin itself)
    parallel_for(p, q, [&](size_t j) {
      uint32_t id = sidx[j];
      size_t k = compat_prefix(ends, acts[id].start);
      res.dp[id] = acts[id].weight + std::max<int64_t>(fw.prefix_max(k), 0);
    });
    parallel_for(p, q, [&](size_t j) {
      uint32_t id = sidx[j];
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

  // T_pivot multi-map of (pivot, activity) pairs (Sec. 5.1).
  pivot_multimap<uint32_t, uint32_t> tpivot;
  {
    std::vector<pivot_multimap<uint32_t, uint32_t>::pair_t> pairs;
    auto with_pivot = pack_index(n, [&](size_t i) { return pivot[i] != kNoPivot; });
    pairs.resize(with_pivot.size());
    parallel_for(0, with_pivot.size(), [&](size_t k) {
      pairs[k] = {pivot[with_pivot[k]], static_cast<uint32_t>(with_pivot[k])};
    });
    tpivot.multi_insert(std::move(pairs));
  }

  atomic_fenwick_max<int64_t> fw(n, 0);
  auto frontier32 = tabulate<uint32_t>(n, [](size_t i) { return static_cast<uint32_t>(i); });
  frontier32 = pack(std::span<const uint32_t>(frontier32),
                    [&](size_t i) { return pivot[i] == kNoPivot; });
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
    frontier32 = tpivot.extract_buckets(frontier32);
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
