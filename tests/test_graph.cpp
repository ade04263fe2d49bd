// Tests for CSR graphs and the synthetic generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <tuple>

#include "graph/generators.h"
#include "parallel/random.h"

namespace {

void check_csr_wellformed(const pp::graph& g) {
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    auto nbrs = g.neighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      ASSERT_LT(nbrs[i], g.num_vertices());
      ASSERT_NE(nbrs[i], v) << "self loop at " << v;
      if (i > 0) ASSERT_LT(nbrs[i - 1], nbrs[i]) << "unsorted/duplicate adjacency at " << v;
      seen.insert({v, nbrs[i]});
    }
  }
  // symmetry
  for (auto& [u, v] : seen) ASSERT_TRUE(seen.count({v, u})) << u << "->" << v;
}

TEST(Graph, FromEdgesDedupesAndSymmetrizes) {
  std::vector<pp::edge> es = {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}};
  auto g = pp::graph::from_edges(3, es);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);  // {0,1}, {1,2}; self loop {2,2} dropped
  check_csr_wellformed(g);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, EmptyAndIsolatedVertices) {
  auto g = pp::graph::from_edges(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (uint32_t v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

// The adjacency a std::set model gives: both directions of every
// non-loop edge, each neighbour once, in increasing order.
std::vector<std::set<uint32_t>> set_model(uint32_t n, const std::vector<pp::edge>& es) {
  std::vector<std::set<uint32_t>> adj(n);
  for (auto [u, v] : es) {
    if (u == v) continue;
    adj[u].insert(v);
    adj[v].insert(u);
  }
  return adj;
}

void expect_matches_model(const pp::graph& g, const std::vector<std::set<uint32_t>>& model) {
  ASSERT_EQ(g.num_vertices(), model.size());
  ASSERT_EQ(g.offsets().size(), model.size() + 1);
  size_t directed = 0;
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    auto nbrs = g.neighbors(v);
    ASSERT_TRUE(std::equal(nbrs.begin(), nbrs.end(), model[v].begin(), model[v].end())) << v;
    directed += model[v].size();
  }
  EXPECT_EQ(g.num_directed_edges(), directed);
}

TEST(Graph, FromEdgesMatchesSetModelAtEveryWidth) {
  // Large enough to cut into blocks and fork at 4 workers; a quarter of the
  // edges are repeated (half of those reversed), and every 50th is a loop.
  constexpr uint32_t n = 3000;
  pp::random_stream rs(5);
  std::vector<pp::edge> es;
  for (size_t i = 0; i < 24000; ++i) {
    auto u = static_cast<uint32_t>(rs.ith_bounded(2 * i, n));
    auto v = static_cast<uint32_t>(i % 50 == 0 ? u : rs.ith_bounded(2 * i + 1, n / 2));
    es.push_back({u, v});
    if (i % 4 == 0) es.push_back(i % 8 == 0 ? pp::edge{u, v} : pp::edge{v, u});
  }
  auto model = set_model(n, es);
  for (unsigned workers : {1u, 4u}) {
    pp::run_scope scope(pp::context{}.with_workers(workers));
    expect_matches_model(pp::graph::from_edges(n, es), model);
  }
  pp::run_scope seq(pp::context{}.with_backend(pp::backend_kind::sequential));
  expect_matches_model(pp::graph::from_edges(n, es), model);
}

TEST(Graph, FromEdgesSmallCases) {
  expect_matches_model(pp::graph::from_edges(0, {}), {});
  expect_matches_model(pp::graph::from_edges(1, {}), set_model(1, {}));
  expect_matches_model(pp::graph::from_edges(1, {{0, 0}, {0, 0}}), set_model(1, {}));
  std::vector<pp::edge> es = {{3, 1}, {1, 3}, {1, 3}, {4, 4}, {0, 1}};  // 2 and 5 isolated
  expect_matches_model(pp::graph::from_edges(6, es), set_model(6, es));
}

// wgraph::from_edges keeps every edge, ordered as std::stable_sort by
// (u, v) orders them: duplicate pairs stay in input order, weights and all.
TEST(Graph, WeightedFromEdgesIsStableSortBySourceThenTarget) {
  constexpr uint32_t n = 2000;
  pp::random_stream rs(9);
  std::vector<pp::wgraph::wedge> es;
  for (size_t i = 0; i < 16000; ++i) {
    auto u = static_cast<uint32_t>(rs.ith_bounded(3 * i, n));
    auto v = static_cast<uint32_t>(rs.ith_bounded(3 * i + 1, 64));  // many repeated pairs
    es.push_back({u, v, static_cast<uint32_t>(i)});                 // weight = input position
  }
  auto model = es;
  std::stable_sort(model.begin(), model.end(), [](const auto& a, const auto& b) {
    return std::tie(a.u, a.v) < std::tie(b.u, b.v);
  });
  for (unsigned workers : {1u, 4u}) {
    pp::run_scope scope(pp::context{}.with_workers(workers));
    auto g = pp::wgraph::from_edges(n, es);
    ASSERT_EQ(g.num_edges(), model.size());
    size_t k = 0;
    for (uint32_t u = 0; u < n; ++u) {
      auto nb = g.out_neighbors(u);
      auto wt = g.out_weights(u);
      for (size_t j = 0; j < nb.size(); ++j, ++k) {
        ASSERT_EQ(model[k].u, u);
        ASSERT_EQ(model[k].v, nb[j]);
        ASSERT_EQ(model[k].w, wt[j]) << "duplicate (u, v) pairs out of input order";
      }
    }
    EXPECT_EQ(k, model.size());
  }
  EXPECT_EQ(pp::wgraph::from_edges(3, {}).num_edges(), 0u);
}

TEST(Generators, RandomGraphWellformed) {
  auto g = pp::random_graph(1000, 5000, 42);
  EXPECT_EQ(g.num_vertices(), 1000u);
  EXPECT_GT(g.num_edges(), 4000u);  // few duplicates at this density
  EXPECT_LE(g.num_edges(), 5000u);
  check_csr_wellformed(g);
}

TEST(Generators, RandomGraphDeterministic) {
  auto a = pp::random_graph(500, 2000, 7);
  auto b = pp::random_graph(500, 2000, 7);
  ASSERT_EQ(a.num_directed_edges(), b.num_directed_edges());
  for (uint32_t v = 0; v < 500; ++v) {
    auto na = a.neighbors(v), nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

TEST(Generators, RmatSkewedDegrees) {
  auto g = pp::rmat_graph(1 << 12, 1 << 15, 13);
  check_csr_wellformed(g);
  // Power-law-ish: max degree far above average degree.
  double avg = 2.0 * g.num_edges() / g.num_vertices();
  EXPECT_GT(g.max_degree(), 8 * avg);
}

TEST(Generators, GridGraphStructure) {
  auto g = pp::grid_graph(10, 15);
  EXPECT_EQ(g.num_vertices(), 150u);
  EXPECT_EQ(g.num_edges(), 10u * 14 + 15u * 9);
  check_csr_wellformed(g);
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_EQ(g.degree(0), 2u);  // corner
  // BFS diameter of a grid is rows+cols-2 from corner to corner.
  std::vector<int> dist(g.num_vertices(), -1);
  std::queue<uint32_t> q;
  q.push(0);
  dist[0] = 0;
  while (!q.empty()) {
    auto v = q.front();
    q.pop();
    for (auto u : g.neighbors(v))
      if (dist[u] < 0) {
        dist[u] = dist[v] + 1;
        q.push(u);
      }
  }
  EXPECT_EQ(dist[149], 10 + 15 - 2);
}

TEST(Generators, AddWeightsSymmetricAndInRange) {
  auto g = pp::random_graph(300, 1500, 3);
  auto wg = pp::add_weights(g, 10, 99, 11);
  EXPECT_EQ(wg.num_vertices(), g.num_vertices());
  EXPECT_EQ(wg.num_edges(), g.num_directed_edges());
  EXPECT_GE(wg.min_weight(), 10u);
  EXPECT_LE(wg.max_weight(), 99u);
  // both directions carry the same weight
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> w;
  for (uint32_t v = 0; v < wg.num_vertices(); ++v) {
    auto nb = wg.out_neighbors(v);
    auto wt = wg.out_weights(v);
    for (size_t i = 0; i < nb.size(); ++i) w[{v, nb[i]}] = wt[i];
  }
  for (auto& [e, wt] : w) ASSERT_EQ(w.at({e.second, e.first}), wt);
  // add_weights copies g's CSR: the same runs, in the same order.
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    auto a = g.neighbors(v), b = wg.out_neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << v;
  }
}

}  // namespace
