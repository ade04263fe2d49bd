// Fig. 6: Delta-stepping running time vs Delta, for several minimum edge
// weights w*.
//
// Paper setup: Twitter (41.7M vertices / 1.47B edges) and Friendster
// (65.6M / 3.61B), w_max = 2^23, w* swept 2^17..2^22, Delta swept
// 2^16..2^26. Claim: on low-diameter graphs the best Delta is within 2x of
// w* when w*/w_max is large (work-efficiency wins); for small w*,
// Delta = w* under-parallelizes. On road-like graphs Delta = w* is *not*
// best (frontiers too small).
//
// Substitution (DESIGN.md §3): Twitter/Friendster -> synthetic RMAT
// power-law (low diameter); road graphs -> 2D grid (high diameter).
#include <cinttypes>
#include <cstdio>

#include "algos/sssp.h"
#include "bench_common.h"
#include "graph/generators.h"

namespace {

void sweep(const pp::wgraph& wg, const char* name, const pp::context& ctx) {
  std::printf("\n--- %s: n=%u, m=%zu, w*=%u, wmax=%u ---\n", name, wg.num_vertices(),
              wg.num_edges(), wg.min_weight(), wg.max_weight());
  std::printf("%10s %10s %10s %12s %12s\n", "log2(dlt)", "time(s)", "buckets", "substeps",
              "relax/m");
  auto dj = pp::sssp_dijkstra(wg, 0, ctx);
  pp::scoped_scheduler sched(ctx);  // one pool lease for the whole sweep
  double best_t = 1e100;
  uint32_t best_delta = 0;
  for (uint32_t ld = 14; ld <= 26; ld += 2) {
    uint32_t delta = 1u << ld;
    pp::sssp_result r;
    double t = bench::time_s([&] { r = pp::sssp_delta_stepping(wg, 0, delta, ctx); });
    if (r.dist != dj.dist) {
      std::printf("MISMATCH at delta=2^%u!\n", ld);
      std::exit(1);
    }
    std::printf("%10u %10.3f %10zu %12zu %12.2f\n", ld, t, r.stats.rounds, r.stats.substeps,
                static_cast<double>(r.stats.relaxations) / wg.num_edges());
    if (t < best_t) {
      best_t = t;
      best_delta = delta;
    }
  }
  std::printf("best Delta = 2^%d vs w* = 2^%d\n", best_delta == 0 ? -1 : (int)(31 - __builtin_clz(best_delta)),
              (int)(31 - __builtin_clz(wg.min_weight())));
}

}  // namespace

int main() {
  const pp::context ctx = bench::env_context();
  bench::banner("SSSP: Delta-stepping time vs Delta for several w*", "Fig. 6, Sec. 6.3", ctx);
  constexpr uint32_t wmax = 1u << 23;

  // Low-diameter power-law proxy for Twitter/Friendster.
  auto social = pp::rmat_graph(static_cast<uint32_t>(bench::scaled(1u << 17)),
                               bench::scaled(1u << 21), 11);
  for (uint32_t lw : {22u, 20u, 17u}) {
    auto wg = pp::add_weights(social, 1u << lw, wmax, 13);
    sweep(wg, "rmat-social", ctx);
  }

  // High-diameter grid proxy for road networks.
  uint32_t side = static_cast<uint32_t>(bench::scaled(300));
  auto grid = pp::grid_graph(side, side);
  {
    auto wg = pp::add_weights(grid, 1u << 22, wmax, 17);
    sweep(wg, "grid-road", ctx);
  }

  std::printf("\nShape check vs paper: on the low-diameter graph the best Delta is\n"
              "within ~2-4x of w* when w* is close to wmax, and moves above w* as\n"
              "w* shrinks; on the grid, Delta = w* is not the best choice.\n");
  return 0;
}
