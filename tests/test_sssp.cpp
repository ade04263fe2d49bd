// Tests for SSSP: Bellman-Ford / Delta-stepping / phase-parallel vs
// Dijkstra on all generator families and Delta choices.
#include <gtest/gtest.h>

#include <vector>

#include "algos/sssp.h"
#include "graph/generators.h"

namespace {

// Every solver call below runs under the library's default context.
const pp::context kCtx{};

enum class GraphKind { random_g, rmat_g, grid_g };

class SsspGraphs : public ::testing::TestWithParam<std::tuple<GraphKind, uint32_t, uint64_t>> {
 protected:
  pp::wgraph make() const {
    auto [kind, wmin, seed] = GetParam();
    pp::graph g;
    switch (kind) {
      case GraphKind::random_g: g = pp::random_graph(2000, 10000, seed); break;
      case GraphKind::rmat_g: g = pp::rmat_graph(1 << 11, 1 << 13, seed); break;
      case GraphKind::grid_g: g = pp::grid_graph(40, 50); break;
    }
    return pp::add_weights(g, wmin, wmin * 16, seed + 1);
  }
};

TEST_P(SsspGraphs, AllAlgorithmsMatchDijkstra) {
  auto wg = make();
  auto dj = pp::sssp_dijkstra(wg, 0, kCtx);
  auto bf = pp::sssp_bellman_ford(wg, 0, kCtx);
  EXPECT_EQ(bf.dist, dj.dist);
  for (uint32_t delta : {1u, 7u, 100u, 1000000u}) {
    auto ds = pp::sssp_delta_stepping(wg, 0, delta, kCtx);
    EXPECT_EQ(ds.dist, dj.dist) << "delta=" << delta;
  }
  auto phase = pp::sssp_phase_parallel(wg, 0, kCtx);
  EXPECT_EQ(phase.dist, dj.dist);
}

TEST_P(SsspGraphs, UnreachableVerticesStayInfinite) {
  auto [kind, wmin, seed] = GetParam();
  (void)kind;
  // two disconnected cliques
  std::vector<pp::edge> es;
  for (uint32_t i = 0; i < 5; ++i)
    for (uint32_t j = i + 1; j < 5; ++j) {
      es.push_back({i, j});
      es.push_back({i + 5, j + 5});
    }
  auto g = pp::graph::from_edges(10, es);
  auto wg = pp::add_weights(g, wmin, wmin * 2, seed);
  auto dj = pp::sssp_dijkstra(wg, 0, kCtx);
  auto ds = pp::sssp_phase_parallel(wg, 0, kCtx);
  for (uint32_t v = 5; v < 10; ++v) {
    EXPECT_EQ(dj.dist[v], pp::kInfDist);
    EXPECT_EQ(ds.dist[v], pp::kInfDist);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SsspGraphs,
    ::testing::Values(std::tuple{GraphKind::random_g, 1u, 1ul},
                      std::tuple{GraphKind::random_g, 128u, 2ul},
                      std::tuple{GraphKind::rmat_g, 1u, 3ul},
                      std::tuple{GraphKind::rmat_g, 1u << 10, 4ul},
                      std::tuple{GraphKind::grid_g, 1u, 5ul},
                      std::tuple{GraphKind::grid_g, 1u << 8, 6ul}));

TEST(Sssp, SingleVertexAndEmpty) {
  auto g = pp::graph::from_edges(1, {});
  auto wg = pp::add_weights(g, 1, 2, 1);
  auto dj = pp::sssp_dijkstra(wg, 0, kCtx);
  EXPECT_EQ(dj.dist[0], 0);
  auto ds = pp::sssp_phase_parallel(wg, 0, kCtx);
  EXPECT_EQ(ds.dist[0], 0);
}

TEST(Sssp, PathGraphExactDistances) {
  // 0-1-2-...-9 with weight 3: dist[v] = 3v.
  std::vector<pp::wgraph::wedge> es;
  for (uint32_t i = 0; i < 9; ++i) {
    es.push_back({i, i + 1, 3});
    es.push_back({i + 1, i, 3});
  }
  auto wg = pp::wgraph::from_edges(10, es);
  for (auto r : {pp::sssp_dijkstra(wg, 0, kCtx), pp::sssp_bellman_ford(wg, 0, kCtx),
                 pp::sssp_delta_stepping(wg, 0, 3, kCtx), pp::sssp_phase_parallel(wg, 0, kCtx)}) {
    for (uint32_t v = 0; v < 10; ++v) EXPECT_EQ(r.dist[v], 3 * v);
  }
}

TEST(Sssp, SmallDeltaMeansMoreBucketSteps) {
  auto g = pp::random_graph(3000, 15000, 7);
  auto wg = pp::add_weights(g, 64, 1024, 8);
  auto fine = pp::sssp_delta_stepping(wg, 0, 64, kCtx);
  auto coarse = pp::sssp_delta_stepping(wg, 0, 4096, kCtx);
  EXPECT_GT(fine.stats.rounds, coarse.stats.rounds);
  EXPECT_EQ(fine.dist, coarse.dist);
}

TEST(Sssp, DeltaEqualWstarDoesNoRepeatedSettling) {
  // With Delta = w*, no relaxation lands in its own bucket, so each bucket
  // settles in one substep over all its out-edges and no vertex is settled
  // twice: relaxations stay close to m.
  auto g = pp::random_graph(2000, 10000, 9);
  auto wg = pp::add_weights(g, 1000, 1100, 10);  // narrow weight range
  auto ds = pp::sssp_delta_stepping(wg, 0, 1000, kCtx);
  // every directed edge relaxed a bounded number of times
  EXPECT_LE(ds.stats.relaxations, 3 * wg.num_edges());
}

TEST(Sssp, PhaseParallelRelaxesEachEdgeOnce) {
  // Delta = w*: every out-edge of a reachable vertex is relaxed exactly
  // once, as in Dijkstra. The two-tier graph (local edges of weight 2,
  // shortcuts of weight 50) has buckets that mix both tiers.
  std::vector<pp::wgraph::wedge> es;
  constexpr uint32_t n = 1000;
  for (uint32_t i = 0; i + 1 < n; ++i) {
    es.push_back({i, i + 1, 2});
    es.push_back({i + 1, i, 2});
  }
  for (uint32_t i = 0; i < n; i += 100) {
    es.push_back({0, i, 50});
    es.push_back({i, 0, 50});
  }
  const pp::wgraph graphs[] = {pp::add_weights(pp::random_graph(2000, 10000, 11), 5, 80, 12),
                               pp::wgraph::from_edges(n, es)};
  for (const auto& wg : graphs) {
    auto dj = pp::sssp_dijkstra(wg, 0, kCtx);
    auto phase = pp::sssp_phase_parallel(wg, 0, kCtx);
    EXPECT_EQ(phase.dist, dj.dist);
    EXPECT_EQ(phase.stats.relaxations, dj.stats.relaxations);
    EXPECT_EQ(phase.stats.processed, dj.stats.processed);
    EXPECT_EQ(pp::sssp_delta_stepping(wg, 0, wg.min_weight(), kCtx).stats.relaxations,
              dj.stats.relaxations);
  }
}

}  // namespace
