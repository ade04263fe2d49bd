// Tests for greedy MIS: sequential, round-based, and TAS-tree asynchronous
// versions must produce the *same* set (greedy MIS is deterministic in the
// priority order).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algos/mis.h"
#include "graph/generators.h"
#include "parallel/random.h"

namespace {

// Every solver call below runs under the library's default context.
const pp::context kCtx{};

class MisGraphs : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {
 protected:
  pp::graph make() const {
    auto [kind, seed] = GetParam();
    switch (kind) {
      case 0: return pp::random_graph(2000, 8000, seed);
      case 1: return pp::rmat_graph(1 << 11, 1 << 13, seed);
      case 2: return pp::grid_graph(40, 50);
      case 3: return pp::random_graph(500, 40000, seed);  // dense
      default: return pp::graph::from_edges(100, {});     // empty graph
    }
  }
};

TEST_P(MisGraphs, AllVariantsComputeTheSameGreedyMis) {
  auto g = make();
  auto [kind, seed] = GetParam();
  (void)kind;
  auto prio = pp::random_permutation(g.num_vertices(), seed + 100);
  auto seq = pp::mis_sequential(g, prio, kCtx);
  auto rounds = pp::mis_rounds(g, prio, kCtx);
  auto tas = pp::mis_tas(g, prio, kCtx);
  EXPECT_TRUE(pp::is_maximal_independent_set(g, seq.in_mis));
  EXPECT_EQ(rounds.in_mis, seq.in_mis);
  EXPECT_EQ(tas.in_mis, seq.in_mis);
  EXPECT_EQ(tas.mis_size, seq.mis_size);
}

TEST_P(MisGraphs, RoundCountIsLogarithmicWhp) {
  auto g = make();
  auto [kind, seed] = GetParam();
  (void)kind;
  if (g.num_vertices() < 2) return;
  auto prio = pp::random_permutation(g.num_vertices(), seed + 200);
  auto rounds = pp::mis_rounds(g, prio, kCtx);
  // Fischer-Noever: longest monotone path O(log n) whp; allow slack.
  double logn = std::log2(static_cast<double>(g.num_vertices()));
  EXPECT_LE(rounds.stats.rounds, static_cast<size_t>(6 * logn + 10));
}

TEST_P(MisGraphs, TasWakeDepthWithinSpanBound) {
  auto g = make();
  auto [kind, seed] = GetParam();
  (void)kind;
  if (g.num_vertices() < 2) return;
  auto prio = pp::random_permutation(g.num_vertices(), seed + 300);
  auto tas = pp::mis_tas(g, prio, kCtx);
  double logn = std::log2(static_cast<double>(g.num_vertices()) + 2);
  // wake-chain depth tracks the longest monotone path, O(log n) whp
  EXPECT_LE(tas.stats.substeps, static_cast<size_t>(12 * logn + 20));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MisGraphs,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                                            ::testing::Values(1ul, 2ul, 3ul)));

TEST(Mis, EmptyGraphSelectsEverything) {
  auto g = pp::graph::from_edges(50, {});
  auto prio = pp::random_permutation(50, 1);
  auto tas = pp::mis_tas(g, prio, kCtx);
  EXPECT_EQ(tas.mis_size, 50u);
}

TEST(Mis, CompleteGraphSelectsOne) {
  std::vector<pp::edge> es;
  for (uint32_t i = 0; i < 30; ++i)
    for (uint32_t j = i + 1; j < 30; ++j) es.push_back({i, j});
  auto g = pp::graph::from_edges(30, es);
  auto prio = pp::random_permutation(30, 2);
  auto seq = pp::mis_sequential(g, prio, kCtx);
  auto tas = pp::mis_tas(g, prio, kCtx);
  EXPECT_EQ(seq.mis_size, 1u);
  EXPECT_EQ(tas.in_mis, seq.in_mis);
  // the selected vertex is the priority-0 one
  for (uint32_t v = 0; v < 30; ++v)
    if (tas.in_mis[v]) EXPECT_EQ(prio[v], 0u);
}

TEST(Mis, PathGraphAdversarialPriorities) {
  // Priorities increasing along a path: worst-case sequential chain; the
  // TAS version must still terminate and agree.
  constexpr uint32_t n = 2000;
  std::vector<pp::edge> es;
  for (uint32_t i = 0; i + 1 < n; ++i) es.push_back({i, i + 1});
  auto g = pp::graph::from_edges(n, es);
  std::vector<uint32_t> prio(n);
  for (uint32_t i = 0; i < n; ++i) prio[i] = i;  // monotone chain of length n
  auto seq = pp::mis_sequential(g, prio, kCtx);
  auto tas = pp::mis_tas(g, prio, kCtx);
  EXPECT_EQ(tas.in_mis, seq.in_mis);
  EXPECT_EQ(seq.mis_size, n / 2);  // vertices 0,2,4,...
}

TEST(Mis, DifferentPrioritiesDifferentSets) {
  auto g = pp::random_graph(500, 3000, 5);
  auto p1 = pp::random_permutation(500, 1);
  auto p2 = pp::random_permutation(500, 2);
  auto m1 = pp::mis_tas(g, p1, kCtx);
  auto m2 = pp::mis_tas(g, p2, kCtx);
  EXPECT_TRUE(pp::is_maximal_independent_set(g, m1.in_mis));
  EXPECT_TRUE(pp::is_maximal_independent_set(g, m2.in_mis));
  EXPECT_NE(m1.in_mis, m2.in_mis);  // overwhelmingly likely
}

}  // namespace
