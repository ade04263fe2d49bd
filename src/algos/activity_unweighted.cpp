#include "algos/activity_unweighted.h"

#include <algorithm>
#include <cassert>

#include "algos/list_ranking.h"
#include "core/cancel.h"
#include "parallel/api.h"
#include "parallel/primitives.h"

namespace pp {

namespace {

// parent[i] = pivot of activity i (Lemma 5.1), kRoot sentinel for rank-1.
std::vector<uint32_t> pivot_forest(std::span<const activity> acts) {
  size_t n = acts.size();
  constexpr uint32_t kRoot = 0xFFFFFFFFu;
  auto ends = tabulate<int64_t>(n, [&](size_t i) { return acts[i].end; });
  std::vector<uint32_t> pam(n + 1, kRoot);  // prefix argmax of start
  for (size_t k = 0; k < n; ++k) {
    pam[k + 1] = pam[k];
    if (pam[k] == kRoot || acts[k].start > acts[pam[k]].start)
      pam[k + 1] = static_cast<uint32_t>(k);
  }
  std::vector<uint32_t> parent(n);
  parallel_for(0, n, [&](size_t i) {
    size_t k = static_cast<size_t>(
        std::upper_bound(ends.begin(), ends.end(), acts[i].start) - ends.begin());
    parent[i] = k == 0 ? kRoot : pam[k];
  });
  return parent;
}

}  // namespace

unweighted_activity_result activity_unweighted_greedy_seq(std::span<const activity> acts,
                                                          const context& ctx) {
  run_scope scope(ctx);
  // Activities are end-sorted: repeatedly take the next one starting at or
  // after the last taken end.
  unweighted_activity_result res;
  res.rank.assign(acts.size(), 0);
  int64_t last_end = std::numeric_limits<int64_t>::min();
  int32_t taken = 0;
  for (size_t i = 0; i < acts.size(); ++i) {
    if (acts[i].start >= last_end) {
      last_end = acts[i].end;
      res.rank[i] = ++taken;
    }
  }
  res.best = taken;
  return res;
}

unweighted_activity_result activity_unweighted_euler(std::span<const activity> acts,
                                                     const context& ctx) {
  run_scope scope(ctx);
  size_t n = acts.size();
  unweighted_activity_result res;
  res.rank.assign(n, 0);
  if (n == 0) return res;
  auto parent = pivot_forest(acts);  // kRoot == kListEnd == 0xFFFFFFFF
  auto depths = forest_depths_euler(parent, ctx);
  int64_t best = 0;
  parallel_for(0, n, [&](size_t i) { res.rank[i] = static_cast<int32_t>(depths.rank[i]); });
  for (auto r : res.rank) best = std::max<int64_t>(best, r);
  res.best = best;
  res.stats = depths.stats;
  res.stats.processed = n;
  return res;
}

unweighted_activity_result activity_unweighted_parallel(std::span<const activity> acts,
                                                        const context& ctx) {
  run_scope scope(ctx);
  size_t n = acts.size();
  unweighted_activity_result res;
  res.rank.assign(n, 0);
  if (n == 0) return res;
  constexpr uint32_t kRoot = 0xFFFFFFFFu;
  auto parent = pivot_forest(acts);

  // Depth by pointer jumping: rank accumulates path lengths to the root.
  std::vector<uint32_t> jump(parent);
  auto rank = tabulate<int32_t>(n, [](size_t) { return 1; });
  std::vector<uint32_t> jump2(n);
  std::vector<int32_t> rank2(n);
  bool any = true;
  while (any) {
    cancel_point();  // between jumping rounds: quiescent, cancellable
    res.stats.rounds++;
    std::atomic<bool> more{false};
    parallel_for(0, n, [&](size_t i) {
      if (jump[i] == kRoot) {
        jump2[i] = kRoot;
        rank2[i] = rank[i];
      } else {
        rank2[i] = rank[i] + rank[jump[i]];
        jump2[i] = jump[jump[i]];
        if (jump2[i] != kRoot) more.store(true, std::memory_order_relaxed);
      }
    });
    std::swap(jump, jump2);
    std::swap(rank, rank2);
    any = more.load();
  }
  res.rank = std::move(rank);
  int64_t best = 0;
  for (auto r : res.rank) best = std::max<int64_t>(best, r);
  res.best = best;
  res.stats.processed = n;
  return res;
}

}  // namespace pp
