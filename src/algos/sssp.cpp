#include "algos/sssp.h"

#include <algorithm>
#include <atomic>
#include <queue>

#include "core/cancel.h"
#include "core/trace.h"
#include "parallel/api.h"
#include "parallel/primitives.h"

namespace pp {

namespace {

using dist_queue = std::priority_queue<std::pair<int64_t, vertex_t>,
                                       std::vector<std::pair<int64_t, vertex_t>>, std::greater<>>;

// Dijkstra's settle loop over a binary heap with lazy deletion: pop the
// nearest label, skip it if stale, relax its out-edges. sssp_dijkstra
// seeds `pq` with the source, sssp_incremental with the endpoints the
// inserted edges improve, so the oracle and the incremental solver run
// one loop.
void settle(const wgraph& g, dist_queue& pq, sssp_result& res) {
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d != res.dist[v]) continue;  // stale entry
    res.stats.processed++;
    auto nbrs = g.out_neighbors(v);
    auto wts = g.out_weights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      res.stats.relaxations++;
      int64_t nd = d + wts[i];
      if (nd < res.dist[nbrs[i]]) {
        res.dist[nbrs[i]] = nd;
        pq.push({nd, nbrs[i]});
      }
    }
  }
}

}  // namespace

sssp_result sssp_dijkstra(const wgraph& g, vertex_t source, const context& ctx) {
  run_scope scope(ctx);
  sssp_result res;
  res.dist.assign(g.num_vertices(), kInfDist);
  dist_queue pq;
  res.dist[source] = 0;
  pq.push({0, source});
  settle(g, pq, res);
  return res;
}

namespace {

// Which out-edges a relax_edges call relaxes: weight <= delta, weight >
// delta, or every edge.
enum class edge_class { light, heavy, all };

// Relax the out-edges of `frontier` in class `edges`, each from
// `from[i]` when given (the distances of a synchronous substep) or else
// from the live distance. Returns the deduplicated list of vertices whose
// distance improved. `claimed` must be all-zero on entry and is restored
// to all-zero on exit.
std::vector<vertex_t> relax_edges(const wgraph& g, std::span<std::atomic<int64_t>> dist,
                                  std::span<const vertex_t> frontier,
                                  std::span<const int64_t> from,
                                  std::vector<std::atomic<uint8_t>>& claimed, edge_class edges,
                                  uint32_t delta, phase_stats& stats) {
  size_t f = frontier.size();
  std::vector<size_t> offs(f + 1, 0);
  parallel_for(0, f, [&](size_t i) { offs[i + 1] = g.out_degree(frontier[i]); });
  size_t total = scan_inclusive(std::span<size_t>(offs.data() + 1, f), size_t{0},
                                std::plus<size_t>{});
  constexpr vertex_t kInvalid = 0xFFFFFFFFu;
  std::vector<vertex_t> out(total, kInvalid);
  // A task scans about kMinGrain edges, whatever the frontier's degrees.
  size_t edge_grain = std::max<size_t>(1, detail::kMinGrain * f / std::max<size_t>(total, 1));
  parallel_for(0, f, [&](size_t i) {
    vertex_t v = frontier[i];
    int64_t dv = from.empty() ? dist[v].load(std::memory_order_relaxed) : from[i];
    auto nbrs = g.out_neighbors(v);
    auto wts = g.out_weights(v);
    for (size_t j = 0; j < nbrs.size(); ++j) {
      bool light = wts[j] <= delta;
      if ((edges == edge_class::light && !light) || (edges == edge_class::heavy && light))
        continue;
      int64_t nd = dv + wts[j];
      if (write_min(&dist[nbrs[j]], nd)) {
        // claim u once per relax phase
        if (claimed[nbrs[j]].exchange(1, std::memory_order_acq_rel) == 0)
          out[offs[i] + j] = nbrs[j];
      }
    }
  }, edge_grain);
  stats.relaxations += total;
  auto changed = pack(std::span<const vertex_t>(out),
                      [&](size_t i) { return out[i] != kInvalid; });
  parallel_for(0, changed.size(), [&](size_t i) {
    claimed[changed[i]].store(0, std::memory_order_relaxed);
  });
  return changed;
}

// Buckets of width delta, each drained by Bellman-Ford substeps over its
// light edges, then one pass over its heavy edges (single_bucket: one
// bucket holding everything, i.e. frontier Bellman-Ford over all edges).
// `one_pass` asserts delta <= w*, the minimum edge weight. Then a vertex in
// bucket i (d in [i*delta, (i+1)*delta)) relaxes every out-edge to
// d + w >= i*delta + w* >= (i+1)*delta, past its own bucket: one substep
// relaxing all out-edges settles the bucket, and no heavy phase is needed,
// so every edge out of a reachable vertex is relaxed exactly once.
sssp_result delta_stepping_impl(const wgraph& g, vertex_t source, uint32_t delta,
                                bool single_bucket, bool one_pass) {
  sssp_result res;
  vertex_t n = g.num_vertices();
  res.dist.assign(n, kInfDist);
  if (n == 0) return res;
  auto dist = std::vector<std::atomic<int64_t>>(n);
  parallel_for(0, n, [&](size_t v) { dist[v].store(kInfDist, std::memory_order_relaxed); });
  dist[source].store(0, std::memory_order_relaxed);
  auto claimed = std::vector<std::atomic<uint8_t>>(n);

  auto bucket_of = [&](int64_t d) { return static_cast<size_t>(d / delta); };
  std::vector<std::vector<vertex_t>> buckets(1);
  auto push_bucket = [&](vertex_t v, int64_t d) {
    size_t b = single_bucket ? 0 : bucket_of(d);
    if (b >= buckets.size()) buckets.resize(b + 1);
    buckets[b].push_back(v);
  };
  push_bucket(source, 0);

  std::vector<uint8_t> settled_in_step(n, 0);
  for (size_t cur = 0; cur < buckets.size(); ++cur) {
    if (buckets[cur].empty()) continue;
    bool counted_round = false;  // count only buckets that settle something
    std::vector<vertex_t> settled;  // vertices finalized in this bucket
    // Inner Bellman-Ford substeps on light edges until the bucket drains
    // (under one_pass: a single substep over all edges).
    std::vector<vertex_t> frontier = std::move(buckets[cur]);
    buckets[cur].clear();
    while (!frontier.empty()) {
      cancel_point();  // between relax substeps: quiescent, cancellable
      // keep only non-stale entries belonging to this bucket, dedup across
      // substeps of this bucket via settled_in_step
      auto active = pack(std::span<const vertex_t>(frontier), [&](size_t i) {
        vertex_t v = frontier[i];
        int64_t d = dist[v].load(std::memory_order_relaxed);
        if (d >= kInfDist) return false;
        if (!single_bucket && bucket_of(d) != cur) return false;
        return settled_in_step[v] == 0;
      });
      // Mark, dropping repeats: earlier buckets can each push the same
      // vertex into this one, with the distances it had then.
      size_t k = 0;
      for (auto v : active)
        if (!settled_in_step[v]) {
          settled_in_step[v] = 1;
          active[k++] = v;
        }
      active.resize(k);
      if (active.empty()) break;
      if (!counted_round) {
        res.stats.rounds++;
        counted_round = true;
      }
      // Delta-stepping counts rounds directly (it never goes through
      // phase_stats::record_frontier), so emit the round event here too.
      trace::instant("phase/round", "round", res.stats.rounds, "frontier", active.size());
      res.stats.substeps++;
      res.stats.processed += active.size();
      for (auto v : active) settled.push_back(v);
      // Bellman-Ford relaxes from the distances as of the substep's start,
      // so the set of improved vertices (and with it `processed` and
      // `substeps`) does not depend on thread timing.
      std::vector<int64_t> from;
      if (single_bucket) {
        from.resize(active.size());
        parallel_for(0, active.size(),
                     [&](size_t i) { from[i] = dist[active[i]].load(std::memory_order_relaxed); });
      }
      auto changed = relax_edges(g, std::span<std::atomic<int64_t>>(dist.data(), n), active,
                                 from, claimed,
                                 single_bucket || one_pass ? edge_class::all : edge_class::light,
                                 delta, res.stats);
      frontier.clear();
      for (auto u : changed) {
        int64_t d = dist[u].load(std::memory_order_relaxed);
        if (single_bucket || bucket_of(d) == cur) {
          // may need re-relaxation within this bucket (or round, for BF)
          if (single_bucket || settled_in_step[u] == 0) frontier.push_back(u);
          else {
            // already settled this step at a larger distance: re-relax
            settled_in_step[u] = 0;
            frontier.push_back(u);
          }
        } else {
          push_bucket(u, d);
        }
      }
      if (single_bucket) {
        // plain Bellman-Ford: every substep is a fresh frontier
        for (auto v : active) settled_in_step[v] = 0;
      }
    }
    // Heavy-edge phase: relax heavy edges of everything settled here once.
    for (auto v : settled) settled_in_step[v] = 0;
    if (!single_bucket && !one_pass && !settled.empty()) {
      auto changed = relax_edges(g, std::span<std::atomic<int64_t>>(dist.data(), n),
                                 settled, {}, claimed, edge_class::heavy, delta, res.stats);
      for (auto u : changed) push_bucket(u, dist[u].load(std::memory_order_relaxed));
    }
  }

  parallel_for(0, n, [&](size_t v) { res.dist[v] = dist[v].load(std::memory_order_relaxed); });
  return res;
}

}  // namespace

sssp_result sssp_bellman_ford(const wgraph& g, vertex_t source, const context& ctx) {
  run_scope scope(ctx);
  // Delta = infinity and a single bucket: the inner loop degenerates to
  // frontier-based Bellman-Ford.
  return delta_stepping_impl(g, source, 0, /*single_bucket=*/true, /*one_pass=*/false);
}

sssp_result sssp_delta_stepping(const wgraph& g, vertex_t source, uint32_t delta,
                                const context& ctx) {
  run_scope scope(ctx);
  delta = std::max(delta, 1u);
  return delta_stepping_impl(g, source, delta, /*single_bucket=*/false,
                             /*one_pass=*/delta <= g.min_weight());
}

sssp_result sssp_phase_parallel(const wgraph& g, vertex_t source, const context& ctx) {
  run_scope scope(ctx);
  uint32_t wstar = g.num_edges() == 0 ? 1 : g.min_weight();
  // Delta = w* meets one_pass unless w* = 0, where Delta is raised to 1.
  return delta_stepping_impl(g, source, std::max<uint32_t>(wstar, 1), /*single_bucket=*/false,
                             /*one_pass=*/wstar >= 1);
}

sssp_result sssp_crauser(const wgraph& g, vertex_t source, bool use_in_criterion,
                         const context& ctx) {
  run_scope scope(ctx);
  sssp_result res;
  vertex_t n = g.num_vertices();
  res.dist.assign(n, kInfDist);
  if (n == 0) return res;
  auto dist = std::vector<std::atomic<int64_t>>(n);
  parallel_for(0, n, [&](size_t v) { dist[v].store(kInfDist, std::memory_order_relaxed); });
  dist[source].store(0, std::memory_order_relaxed);
  auto claimed = std::vector<std::atomic<uint8_t>>(n);

  // min outgoing weight per vertex, and min incoming weight (equal to
  // outgoing for the symmetric graphs we build, but computed separately so
  // directed inputs stay correct)
  std::vector<int64_t> min_out(n, kInfDist);
  parallel_for(0, n, [&](size_t v) {
    for (auto w : g.out_weights(static_cast<vertex_t>(v)))
      min_out[v] = std::min<int64_t>(min_out[v], w);
  });
  std::vector<std::atomic<int64_t>> min_in(n);
  parallel_for(0, n, [&](size_t v) { min_in[v].store(kInfDist, std::memory_order_relaxed); });
  parallel_for(0, n, [&](size_t v) {
    auto nbrs = g.out_neighbors(static_cast<vertex_t>(v));
    auto wts = g.out_weights(static_cast<vertex_t>(v));
    for (size_t i = 0; i < nbrs.size(); ++i)
      write_min(&min_in[nbrs[i]], static_cast<int64_t>(wts[i]));
  });

  std::vector<vertex_t> queued = {source};  // tentative, not yet settled
  std::vector<uint8_t> inq(n, 0);            // inq[v] == 1 iff v is in `queued`
  inq[source] = 1;
  while (!queued.empty()) {
    cancel_point();  // between settle rounds: quiescent, cancellable
    // OUT-criterion threshold over the queued set
    int64_t threshold = reduce_map(
        size_t{0}, queued.size(), kInfDist,
        [&](size_t i) {
          vertex_t v = queued[i];
          return dist[v].load(std::memory_order_relaxed) + min_out[v];
        },
        [](int64_t a, int64_t b) { return std::min(a, b); });
    // IN-criterion: dist(v) - min_in(v) <= L, L = min tentative distance
    // (any improving path enters v via an edge of weight >= min_in(v) from
    // a vertex of distance >= L).
    int64_t min_dist = reduce_map(
        size_t{0}, queued.size(), kInfDist,
        [&](size_t i) { return dist[queued[i]].load(std::memory_order_relaxed); },
        [](int64_t a, int64_t b) { return std::min(a, b); });
    auto ready = [&](size_t i) {
      vertex_t v = queued[i];
      int64_t d = dist[v].load(std::memory_order_relaxed);
      if (d <= threshold) return true;
      return use_in_criterion && d - min_in[v].load(std::memory_order_relaxed) <= min_dist;
    };
    auto settle = pack(std::span<const vertex_t>(queued), ready);
    auto rest = pack(std::span<const vertex_t>(queued), [&](size_t i) { return !ready(i); });
    res.stats.record_frontier(settle.size());
    auto changed = relax_edges(g, std::span<std::atomic<int64_t>>(dist.data(), n), settle,
                               {}, claimed, edge_class::all, 0, res.stats);
    // new queue = unsettled remainder + newly improved vertices that are
    // not already queued (changed is deduped per call; the membership
    // flags guard against duplicates with `rest`). The flags persist across
    // rounds and change only for settled and newly queued vertices, so the
    // bookkeeping costs O(|settle| + |changed|) per round, not O(n).
    for (auto v : settle) inq[v] = 0;
    for (auto v : changed)
      if (!inq[v]) {
        rest.push_back(v);
        inq[v] = 1;
      }
    queued = std::move(rest);
  }
  parallel_for(0, n, [&](size_t v) { res.dist[v] = dist[v].load(std::memory_order_relaxed); });
  return res;
}

sssp_result sssp_incremental(const wgraph& g, vertex_t source, std::span<const int64_t> prior,
                             std::span<const wgraph::wedge> inserted, const context& ctx) {
  run_scope scope(ctx);
  sssp_result res;
  res.dist.assign(g.num_vertices(), kInfDist);
  std::copy(prior.begin(), prior.begin() + std::min<size_t>(prior.size(), res.dist.size()),
            res.dist.begin());
  res.dist[source] = 0;
  dist_queue pq;
  // Only endpoints an inserted edge actually improves enter the queue; an
  // insertion that doesn't beat the prior label changes no distance.
  for (const auto& e : inserted) {
    res.stats.relaxations++;
    if (res.dist[e.u] >= kInfDist) continue;
    int64_t nd = res.dist[e.u] + e.w;
    if (nd < res.dist[e.v]) {
      res.dist[e.v] = nd;
      pq.push({nd, e.v});
    }
  }
  settle(g, pq, res);
  return res;
}

}  // namespace pp
