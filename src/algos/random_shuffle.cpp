#include "algos/random_shuffle.h"

#include <atomic>

#include "core/cancel.h"
#include "parallel/api.h"
#include "parallel/primitives.h"
#include "parallel/random.h"

namespace pp {

std::vector<uint32_t> knuth_targets(size_t n, uint64_t seed) {
  random_stream rs(seed);
  return tabulate<uint32_t>(n, [&](size_t i) {
    return i == 0 ? 0u : static_cast<uint32_t>(rs.ith_bounded(i, i + 1));
  });
}

shuffle_result knuth_shuffle_seq(size_t n, std::span<const uint32_t> targets,
                                 const context& ctx) {
  run_scope scope(ctx);
  shuffle_result res;
  res.perm = tabulate<uint32_t>(n, [](size_t i) { return static_cast<uint32_t>(i); });
  for (size_t i = 1; i < n; ++i) std::swap(res.perm[i], res.perm[targets[i]]);
  res.stats.rounds = n > 1 ? n - 1 : 0;
  res.stats.processed = res.stats.rounds;
  return res;
}

shuffle_result knuth_shuffle_parallel(size_t n, std::span<const uint32_t> targets,
                                      const context& ctx) {
  run_scope scope(ctx);
  shuffle_result res;
  res.perm = tabulate<uint32_t>(n, [](size_t i) { return static_cast<uint32_t>(i); });
  if (n <= 1) return res;
  constexpr uint32_t kFree = 0xFFFFFFFFu;

  // reservation[c] = smallest unfinished iteration index that wants cell c
  auto reserve = std::vector<std::atomic<uint32_t>>(n);
  parallel_for(0, n, [&](size_t c) { reserve[c].store(kFree, std::memory_order_relaxed); });

  auto remaining = tabulate<uint32_t>(n - 1, [](size_t k) { return static_cast<uint32_t>(k + 1); });
  while (!remaining.empty()) {
    cancel_point();  // between reservation rounds: quiescent, cancellable
    res.stats.rounds++;
    // Phase 1: every unfinished iteration reserves its two cells.
    parallel_for(0, remaining.size(), [&](size_t k) {
      uint32_t i = remaining[k];
      write_min(&reserve[i], i);
      write_min(&reserve[targets[i]], i);
    });
    // Phase 2: iterations owning both cells commit their swap. An
    // iteration's cells are i and targets[i] <= i; owning both means no
    // smaller unfinished iteration conflicts, i.e. it is ready in the
    // dependence order.
    std::vector<uint8_t> done(remaining.size());
    parallel_for(0, remaining.size(), [&](size_t k) {
      uint32_t i = remaining[k];
      bool mine = reserve[i].load(std::memory_order_relaxed) == i &&
                  reserve[targets[i]].load(std::memory_order_relaxed) == i;
      done[k] = mine ? 1 : 0;
      if (mine) std::swap(res.perm[i], res.perm[targets[i]]);
    });
    // Phase 3: clear reservations of the cells we touched and drop
    // committed iterations.
    parallel_for(0, remaining.size(), [&](size_t k) {
      uint32_t i = remaining[k];
      reserve[i].store(kFree, std::memory_order_relaxed);
      reserve[targets[i]].store(kFree, std::memory_order_relaxed);
    });
    size_t committed = 0;
    for (auto d : done) committed += d;
    res.stats.processed += committed;
    res.stats.max_frontier = std::max(res.stats.max_frontier, committed);
    remaining = pack(std::span<const uint32_t>(remaining), [&](size_t k) { return done[k] == 0; });
  }
  return res;
}

}  // namespace pp
