#include "algos/list_ranking.h"

#include <cassert>

#include "core/cancel.h"
#include "parallel/api.h"
#include "parallel/primitives.h"
#include "parallel/random.h"

namespace pp {

list_ranking_result list_ranking_seq(std::span<const uint32_t> next, const context& ctx) {
  run_scope scope(ctx);
  size_t n = next.size();
  list_ranking_result res;
  res.rank.assign(n, 0);
  if (n == 0) return res;
  // head = the node nobody points to
  std::vector<uint8_t> has_pred(n, 0);
  for (auto nx : next)
    if (nx != kListEnd) has_pred[nx] = 1;
  uint32_t head = kListEnd;
  for (uint32_t v = 0; v < n; ++v)
    if (!has_pred[v]) head = v;
  uint64_t r = 0;
  for (uint32_t v = head; v != kListEnd; v = next[v]) res.rank[v] = r++;
  return res;
}

list_ranking_result list_ranking_parallel(std::span<const uint32_t> next_in,
                                          const context& ctx) {
  run_scope scope(ctx);
  // unit weights: the weighted rank counts the nodes strictly before v
  auto w = tabulate<int64_t>(next_in.size(), [](size_t) { return int64_t{1}; });
  auto wres = list_ranking_weighted_parallel(next_in, w, ctx);
  list_ranking_result res;
  res.rank.assign(next_in.size(), 0);
  parallel_for(0, next_in.size(),
               [&](size_t v) { res.rank[v] = static_cast<uint64_t>(wres.rank[v]); });
  res.stats = wres.stats;
  return res;
}

weighted_ranking_result list_ranking_weighted_seq(std::span<const uint32_t> next,
                                                  std::span<const int64_t> w,
                                                  const context& ctx) {
  run_scope scope(ctx);
  size_t n = next.size();
  weighted_ranking_result res;
  res.rank.assign(n, 0);
  if (n == 0) return res;
  std::vector<uint8_t> has_pred(n, 0);
  for (auto nx : next)
    if (nx != kListEnd) has_pred[nx] = 1;
  uint32_t head = kListEnd;
  for (uint32_t v = 0; v < n; ++v)
    if (!has_pred[v]) head = v;
  int64_t acc = 0;
  for (uint32_t v = head; v != kListEnd; v = next[v]) {
    res.rank[v] = acc;
    acc += w[v];
  }
  return res;
}

weighted_ranking_result list_ranking_weighted_parallel(std::span<const uint32_t> next_in,
                                                       std::span<const int64_t> w,
                                                       const context& ctx) {
  run_scope scope(ctx);
  size_t n = next_in.size();
  weighted_ranking_result res;
  res.rank.assign(n, 0);
  if (n == 0) return res;

  auto prio = random_permutation(n, ctx.seed);
  std::vector<uint32_t> next(next_in.begin(), next_in.end());
  std::vector<uint32_t> prev(n, kListEnd);
  parallel_for(0, n, [&](size_t v) {
    if (next[v] != kListEnd) prev[next[v]] = static_cast<uint32_t>(v);
  });
  // win[v] = rank(v) - rank(prev(v)) = accumulated weight between them;
  // for the current head, win = rank (weight accumulated from splices of
  // everything that used to precede it).
  std::vector<int64_t> win(n);
  parallel_for(0, n, [&](size_t v) { win[v] = prev[v] == kListEnd ? 0 : w[prev[v]]; });

  struct splice {
    uint32_t v;
    uint32_t prv;   // predecessor at splice time (kListEnd if head)
    int64_t w_in;   // accumulated weight between prv and v at splice time
  };
  // splices grouped by round, for the reverse replay
  std::vector<std::vector<splice>> rounds;

  auto live = tabulate<uint32_t>(n, [](size_t v) { return static_cast<uint32_t>(v); });
  std::vector<uint8_t> spliced(n, 0);
  // keep the last node alive as the anchor (its rank seeds the expansion)
  while (live.size() > 1) {
    cancel_point();  // between contraction rounds: quiescent, cancellable
    // local priority minima among live nodes: lower priority than both
    // current neighbors (P(x) has size <= 2, the constant-size case)
    auto ready = pack(std::span<const uint32_t>(live), [&](size_t k) {
      uint32_t v = live[k];
      uint32_t p = prev[v], nx = next[v];
      if (p != kListEnd && prio[p] < prio[v]) return false;
      if (nx != kListEnd && prio[nx] < prio[v]) return false;
      // keep one anchor: the head of a fully contracted list
      return !(p == kListEnd && nx == kListEnd);
    });
    if (ready.empty()) break;
    res.stats.record_frontier(ready.size());
    std::vector<splice> batch(ready.size());
    parallel_for(0, ready.size(), [&](size_t k) {
      uint32_t v = ready[k];
      batch[k] = {v, prev[v], win[v]};
    });
    // splice all ready nodes (no two adjacent: both would need the lower
    // priority of the pair)
    parallel_for(0, ready.size(), [&](size_t k) {
      uint32_t v = ready[k];
      uint32_t p = prev[v], nx = next[v];
      if (p != kListEnd) next[p] = nx;
      if (nx != kListEnd) {
        prev[nx] = p;
        win[nx] += win[v];
      }
      spliced[v] = 1;
    });
    live = pack(std::span<const uint32_t>(live),
                [&](size_t k) { return spliced[live[k]] == 0; });
    rounds.push_back(std::move(batch));
  }

  // Expansion. Invariant: for the current head h, win[h] == rank(h); for
  // any other live v, win[v] == rank(v) - rank(prev(v)). The anchor is the
  // final head, so its rank is its win; spliced nodes replay in reverse
  // round order (their prv is always revived in a later round or is the
  // anchor, so rank[prv] is final when read).
  assert(live.size() == 1);
  res.rank[live[0]] = win[live[0]];
  for (size_t r = rounds.size(); r-- > 0;) {
    auto& batch = rounds[r];
    parallel_for(0, batch.size(), [&](size_t k) {
      const splice& s = batch[k];
      if (s.prv == kListEnd) res.rank[s.v] = s.w_in;  // was head at splice time
      else res.rank[s.v] = res.rank[s.prv] + s.w_in;
    });
  }
  return res;
}

weighted_ranking_result forest_depths_euler(std::span<const uint32_t> parent,
                                            const context& ctx) {
  run_scope scope(ctx);
  size_t n = parent.size();
  weighted_ranking_result res;
  res.rank.assign(n, 0);
  if (n == 0) return res;

  // children grouped by parent, in node-id order (stable), plus the roots.
  std::vector<size_t> child_off(n + 1, 0);
  std::vector<uint32_t> children(0);
  std::vector<uint32_t> roots;
  {
    std::vector<size_t> cnt(n, 0);
    for (size_t v = 0; v < n; ++v) {
      if (parent[v] == kListEnd) roots.push_back(static_cast<uint32_t>(v));
      else cnt[parent[v]]++;
    }
    for (size_t p = 0; p < n; ++p) child_off[p + 1] = child_off[p] + cnt[p];
    children.assign(child_off[n], 0);
    std::vector<size_t> cursor(child_off.begin(), child_off.end() - 1);
    for (size_t v = 0; v < n; ++v)
      if (parent[v] != kListEnd) children[cursor[parent[v]]++] = static_cast<uint32_t>(v);
  }

  // Euler tour as a linked list over 2n entries: enter(v) = 2v carries
  // weight +1, exit(v) = 2v+1 carries -1. The weighted rank at enter(v) is
  // the number of open ancestors = depth(v) - 1.
  auto enter = [](uint32_t v) { return 2 * v; };
  auto exit_ = [](uint32_t v) { return 2 * v + 1; };
  std::vector<uint32_t> tour_next(2 * n, kListEnd);
  parallel_for(0, n, [&](size_t v) {
    auto kids = std::span<const uint32_t>(children.data() + child_off[v],
                                          child_off[v + 1] - child_off[v]);
    uint32_t u = static_cast<uint32_t>(v);
    tour_next[enter(u)] = kids.empty() ? exit_(u) : enter(kids.front());
    // each child's exit points to the next sibling's enter, last to our exit
    for (size_t k = 0; k < kids.size(); ++k)
      tour_next[exit_(kids[k])] = k + 1 < kids.size() ? enter(kids[k + 1]) : exit_(u);
  });
  for (size_t r = 0; r + 1 < roots.size(); ++r)
    tour_next[exit_(roots[r])] = enter(roots[r + 1]);

  auto weights = tabulate<int64_t>(2 * n, [](size_t i) { return i % 2 == 0 ? 1 : -1; });
  auto ranked = list_ranking_weighted_parallel(tour_next, weights, ctx);
  parallel_for(0, n, [&](size_t v) { res.rank[v] = ranked.rank[enter(static_cast<uint32_t>(v))] + 1; });
  res.stats = ranked.stats;
  return res;
}

std::vector<uint32_t> random_list(size_t n, uint64_t seed) {
  auto order = random_permutation(n, seed);  // order[i] = node at position i
  std::vector<uint32_t> next(n, kListEnd);
  parallel_for(0, n, [&](size_t i) {
    if (i + 1 < n) next[order[i]] = order[i + 1];
  });
  return next;
}

}  // namespace pp
