// Tests for Jones-Plassmann coloring and greedy maximal matching: parallel
// versions must equal the sequential greedy exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algos/coloring.h"
#include "algos/matching.h"
#include "graph/generators.h"
#include "parallel/random.h"

namespace {

// Every solver call below runs under the library's default context.
const pp::context kCtx{};

class GraphSweep : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {
 protected:
  pp::graph make() const {
    auto [kind, seed] = GetParam();
    switch (kind) {
      case 0: return pp::random_graph(1500, 6000, seed);
      case 1: return pp::rmat_graph(1 << 10, 1 << 12, seed);
      case 2: return pp::grid_graph(30, 40);
      case 3: return pp::random_graph(300, 20000, seed);  // dense
      default: return pp::graph::from_edges(64, {});
    }
  }
};

TEST_P(GraphSweep, ColoringTasEqualsSequentialGreedy) {
  auto g = make();
  auto [kind, seed] = GetParam();
  (void)kind;
  auto prio = pp::random_permutation(g.num_vertices(), seed + 7);
  auto seq = pp::coloring_sequential(g, prio, kCtx);
  auto tas = pp::coloring_tas(g, prio, kCtx);
  EXPECT_TRUE(pp::is_valid_coloring(g, seq.color));
  EXPECT_EQ(tas.color, seq.color);
  EXPECT_EQ(tas.num_colors, seq.num_colors);
  if (g.num_vertices() > 0) EXPECT_LE(seq.num_colors, g.max_degree() + 1);
}

TEST_P(GraphSweep, MatchingRoundsEqualsSequentialGreedy) {
  auto g = make();
  auto [kind, seed] = GetParam();
  (void)kind;
  auto eprio = pp::random_permutation(g.num_edges(), seed + 13);
  auto seq = pp::matching_sequential(g, eprio, kCtx);
  auto par = pp::matching_rounds(g, eprio, kCtx);
  EXPECT_TRUE(pp::is_maximal_matching(g, seq.partner));
  EXPECT_EQ(par.partner, seq.partner);
  EXPECT_EQ(par.matching_size, seq.matching_size);
}

TEST_P(GraphSweep, MatchingRoundCountLogarithmic) {
  auto g = make();
  auto [kind, seed] = GetParam();
  (void)kind;
  if (g.num_edges() < 2) return;
  auto eprio = pp::random_permutation(g.num_edges(), seed + 23);
  auto par = pp::matching_rounds(g, eprio, kCtx);
  double logm = std::log2(static_cast<double>(g.num_edges()) + 2);
  EXPECT_LE(par.stats.rounds, static_cast<size_t>(6 * logm + 10));
}

INSTANTIATE_TEST_SUITE_P(Sweep, GraphSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                                            ::testing::Values(1ul, 2ul, 3ul)));

TEST(Coloring, PathGraphTwoColorsWithMonotonePriorities) {
  constexpr uint32_t n = 100;
  std::vector<pp::edge> es;
  for (uint32_t i = 0; i + 1 < n; ++i) es.push_back({i, i + 1});
  auto g = pp::graph::from_edges(n, es);
  std::vector<uint32_t> prio(n);
  for (uint32_t i = 0; i < n; ++i) prio[i] = i;
  auto seq = pp::coloring_sequential(g, prio, kCtx);
  auto tas = pp::coloring_tas(g, prio, kCtx);
  EXPECT_EQ(tas.color, seq.color);
  EXPECT_EQ(seq.num_colors, 2u);  // greedy alternates along the chain
}

TEST(Coloring, CompleteGraphNeedsNColors) {
  std::vector<pp::edge> es;
  for (uint32_t i = 0; i < 20; ++i)
    for (uint32_t j = i + 1; j < 20; ++j) es.push_back({i, j});
  auto g = pp::graph::from_edges(20, es);
  auto prio = pp::random_permutation(20, 3);
  auto tas = pp::coloring_tas(g, prio, kCtx);
  EXPECT_EQ(tas.num_colors, 20u);
  EXPECT_TRUE(pp::is_valid_coloring(g, tas.color));
}

TEST(Matching, PathGraphAlternates) {
  constexpr uint32_t n = 10;
  std::vector<pp::edge> es;
  for (uint32_t i = 0; i + 1 < n; ++i) es.push_back({i, i + 1});
  auto g = pp::graph::from_edges(n, es);
  // priority = edge index: greedy takes edges 0-1, 2-3, 4-5, 6-7, 8-9
  std::vector<uint32_t> eprio(g.num_edges());
  for (uint32_t e = 0; e < eprio.size(); ++e) eprio[e] = e;
  auto seq = pp::matching_sequential(g, eprio, kCtx);
  auto par = pp::matching_rounds(g, eprio, kCtx);
  EXPECT_EQ(seq.matching_size, 5u);
  EXPECT_EQ(par.partner, seq.partner);
}

TEST(Matching, StarGraphMatchesOneEdge) {
  std::vector<pp::edge> es;
  for (uint32_t i = 1; i <= 20; ++i) es.push_back({0, i});
  auto g = pp::graph::from_edges(21, es);
  auto eprio = pp::random_permutation(g.num_edges(), 9);
  auto par = pp::matching_rounds(g, eprio, kCtx);
  EXPECT_EQ(par.matching_size, 1u);
  EXPECT_TRUE(pp::is_maximal_matching(g, par.partner));
}

}  // namespace
