// Tests for the versioned session store (src/serve/session.h): snapshot
// isolation while deltas land, XOR-incremental fingerprints that address
// content (not history), LRU eviction, engine cache/dedup behavior across
// versions, and exactness of sssp/incremental against the from-scratch
// reference. The reader/writer tests are the TSan half of the store's
// contract: readers pinning version v never block the writer installing
// v+1 (ci runs this binary under -fsanitize=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checkers.h"
#include "core/registry.h"
#include "serve/engine.h"
#include "serve/session.h"

namespace {

using pp::problem_input;
using pp::registry;
using pp::snapshot_input;
using pp::sssp_input;
using pp::vertex_t;
using pp::wgraph;
using pp::serve::session_delta;
using pp::serve::session_desc;
using pp::serve::session_error;
using pp::serve::session_table;

// A tiny graph with known edges: a directed path 0->1->...->(n-1) of
// weight-10 edges, so tests can add/remove/reweight edges they fully
// control and predict every distance by hand.
problem_input path_graph(vertex_t n) {
  std::vector<wgraph::wedge> edges;
  for (vertex_t u = 0; u + 1 < n; ++u) edges.push_back({u, u + 1, 10});
  sssp_input in;
  in.g = wgraph::from_edges(n, std::move(edges));
  in.source = 0;
  return in;
}

const sssp_input& base_of(const snapshot_input& s) {
  return std::get<sssp_input>(*s.base);
}

std::vector<int64_t> dijkstra_dist(const problem_input& in) {
  auto r = registry::run("sssp/dijkstra", in);
  return std::get<pp::sssp_result>(r.value).dist;
}

TEST(Session, CreateDescribeDrop) {
  session_table tab(0);
  session_desc d = tab.create("p", path_graph(8));
  EXPECT_EQ(d.name, "p");
  EXPECT_EQ(d.problem, "sssp");
  EXPECT_EQ(d.version, 0u);
  EXPECT_EQ(d.elems, 7u);  // 7 path edges
  EXPECT_FALSE(d.hints);
  EXPECT_EQ(tab.describe("p").fp, d.fp);
  EXPECT_EQ(tab.size(), 1u);

  EXPECT_THROW(tab.create("p", path_graph(8)), session_error);  // duplicate
  EXPECT_THROW(tab.describe("nope"), session_error);
  EXPECT_TRUE(tab.drop("p"));
  EXPECT_FALSE(tab.drop("p"));
  EXPECT_EQ(tab.size(), 0u);
}

TEST(Session, FingerprintAddressesContentNotHistory) {
  // Reaching the same edge set by different delta histories must yield the
  // same fingerprint — that is what lets the engine cache hit across
  // sessions and across versions.
  session_table tab(0);
  session_desc a0 = tab.create("a", path_graph(16));
  session_desc b0 = tab.create("b", path_graph(16));
  EXPECT_EQ(a0.fp, b0.fp);

  // a: two single-edge deltas; b: one combined delta (other order).
  session_delta d1, d2, both;
  d1.add_edges = {{2, 9, 3}};
  d2.add_edges = {{5, 11, 4}};
  both.add_edges = {{5, 11, 4}, {2, 9, 3}};
  tab.apply("a", d1);
  session_desc a2 = tab.apply("a", d2);
  session_desc b1 = tab.apply("b", both);
  EXPECT_EQ(a2.fp, b1.fp);
  EXPECT_EQ(a2.version, 2u);
  EXPECT_EQ(b1.version, 1u);

  // Add-then-remove restores the ORIGINAL fingerprint exactly (XOR in,
  // XOR out), and a reweight round-trip does too.
  session_delta rm;
  rm.remove_edges = {{2, 9}, {5, 11}};
  EXPECT_EQ(tab.apply("a", rm).fp, a0.fp);

  session_delta rew, back;
  rew.add_edges = {{0, 1, 99}};  // reweight an existing path edge
  back.add_edges = {{0, 1, 10}};
  session_desc rew_d = tab.apply("b", rew);
  EXPECT_NE(rew_d.fp, b1.fp);
  session_delta rm2;
  rm2.remove_edges = {{2, 9}, {5, 11}};
  tab.apply("b", back);
  EXPECT_EQ(tab.apply("b", rm2).fp, b0.fp);
}

// Edge map model of an sssp session: (u, v) -> weight.
using edge_map = std::map<std::pair<vertex_t, vertex_t>, uint32_t>;

problem_input from_model(vertex_t n, const edge_map& m, vertex_t source) {
  std::vector<wgraph::wedge> edges;
  for (const auto& [k, w] : m) edges.push_back({k.first, k.second, w});
  sssp_input in;
  in.g = wgraph::from_edges(n, std::move(edges));
  in.source = source;
  return in;
}

// g holds exactly the model's edges, each vertex's run sorted by target
// and deduplicated.
::testing::AssertionResult csr_matches(const wgraph& g, const edge_map& model) {
  edge_map got;
  std::vector<std::pair<vertex_t, vertex_t>> order;
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    auto nbrs = g.out_neighbors(u);
    auto ws = g.out_weights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      got[{u, nbrs[i]}] = ws[i];
      order.emplace_back(u, nbrs[i]);
    }
  }
  if (got != model) return ::testing::AssertionFailure() << "edge set differs from the model";
  if (order.size() != model.size()) return ::testing::AssertionFailure() << "duplicate edges";
  if (!std::is_sorted(order.begin(), order.end()))
    return ::testing::AssertionFailure() << "runs not sorted by target";
  return ::testing::AssertionSuccess();
}

// The fingerprint a fresh session gives `in`: a pure function of content.
pp::fingerprint fresh_fp(const problem_input& in) {
  session_table fresh(0);
  return fresh.create("f", in).fp;
}

TEST(Session, DeltasMatchAnEdgeMapModel) {
  // Random deltas against a std::map model: after each one the version's
  // CSR, size and fingerprint are the model's, and the incremental hints
  // follow the rule (removals, weight raises and source moves invalidate;
  // inserts and weight cuts keep them, seeding exactly those edges).
  constexpr vertex_t n = 24;
  std::mt19937_64 gen(2024);
  auto vtx = [&] { return static_cast<vertex_t>(gen() % n); };
  auto weight = [&] { return static_cast<uint32_t>(1 + gen() % 20); };

  // The base input carries duplicate (u, v) pairs; the least weight wins.
  edge_map model;
  std::vector<wgraph::wedge> base;
  for (int i = 0; i < 80; ++i) {
    wgraph::wedge e{vtx(), vtx(), weight()};
    base.push_back({e.u, e.v, e.w + 1 + static_cast<uint32_t>(gen() % 5)});
    base.push_back(e);
    auto [it, fresh] = model.emplace(std::make_pair(e.u, e.v), e.w);
    if (!fresh) it->second = std::min(it->second, e.w);
  }
  vertex_t source = 0;
  sssp_input in;
  in.g = wgraph::from_edges(n, std::move(base));
  in.source = source;
  session_table tab(0);
  tab.create("m", in);

  for (int round = 0; round < 60; ++round) {
    // Labels current at the head, so the next snapshot's seeds are exactly
    // this delta's inserts and cuts.
    snapshot_input before = tab.snapshot("m");
    tab.note_solve("m", before.version, dijkstra_dist(before));

    auto present = [&] {
      auto it = model.begin();
      std::advance(it, static_cast<long>(gen() % model.size()));
      return it->first;
    };
    auto absent = [&] {
      std::pair<vertex_t, vertex_t> k{vtx(), vtx()};
      while (model.count(k)) k = {vtx(), vtx()};
      return k;
    };
    // Odd rounds draw only the ops that keep the hints.
    constexpr int kKeeping[] = {0, 2, 3, 5};
    session_delta d;
    for (int op = 0; op < 6; ++op) {
      int kind = round % 2 == 1 ? kKeeping[gen() % 4] : static_cast<int>(gen() % 8);
      if (model.empty()) kind = 0;
      switch (kind) {
        case 0: {  // insert
          auto [u, v] = absent();
          d.add_edges.push_back({u, v, weight()});
          break;
        }
        case 1: {  // weight raise
          auto [u, v] = present();
          d.add_edges.push_back({u, v, model[{u, v}] + 1 + static_cast<uint32_t>(gen() % 4)});
          break;
        }
        case 2: {  // weight cut (a no-op add when the weight is 1)
          auto [u, v] = present();
          d.add_edges.push_back({u, v, std::max<uint32_t>(1, model[{u, v}] / 2)});
          break;
        }
        case 3: {  // no-op add
          auto [u, v] = present();
          d.add_edges.push_back({u, v, model[{u, v}]});
          break;
        }
        case 4: {  // removal
          auto [u, v] = present();
          d.remove_edges.push_back({u, v});
          break;
        }
        case 5: {  // removal of an absent edge
          auto [u, v] = absent();
          d.remove_edges.push_back({u, v});
          break;
        }
        case 6: {  // add and remove one key in one delta: the remove wins
          wgraph::wedge e{vtx(), vtx(), weight()};
          d.add_edges.push_back(e);
          d.remove_edges.push_back({e.u, e.v});
          break;
        }
        default:  // move the source (or keep it)
          d.source = gen() % 2 == 0 ? source : vtx();
          break;
      }
    }

    // The model: adds in order, then removes; diff it against the parent.
    edge_map next = model;
    for (const auto& e : d.add_edges) next[{e.u, e.v}] = e.w;
    for (const auto& e : d.remove_edges) next.erase({e.u, e.v});
    bool invalidate = d.source && *d.source != source;
    std::set<std::pair<vertex_t, vertex_t>> seeds;
    for (const auto& [k, w] : model) {
      auto it = next.find(k);
      if (it == next.end() || it->second > w) invalidate = true;
      else if (it->second < w) seeds.insert(k);
    }
    for (const auto& [k, w] : next)
      if (!model.count(k)) seeds.insert(k);
    model = std::move(next);
    if (d.source) source = *d.source;

    session_desc desc = tab.apply("m", d);
    snapshot_input s = tab.snapshot("m");
    ASSERT_TRUE(csr_matches(base_of(s).g, model)) << "round " << round;
    EXPECT_EQ(base_of(s).source, source);
    EXPECT_EQ(desc.elems, model.size());
    EXPECT_EQ(desc.version, static_cast<uint64_t>(round + 1));
    EXPECT_EQ(desc.fp, fresh_fp(from_model(n, model, source))) << "round " << round;

    EXPECT_EQ(desc.hints, !invalidate) << "round " << round;
    EXPECT_EQ(s.prior_dist != nullptr, !invalidate) << "round " << round;
    if (!invalidate) {
      std::set<std::pair<vertex_t, vertex_t>> seeded;
      if (s.inserted_edges)
        for (const auto& e : *s.inserted_edges) seeded.insert({e.u, e.v});
      EXPECT_EQ(seeded, seeds) << "round " << round;
    }
  }
}

TEST(Session, SequenceSessionsMatchDirectCreation) {
  // Appending to a short sequence fingerprint-equals creating the long one.
  session_table tab(0);
  pp::sequence_input small;
  small.a = {3, 1, 4, 1, 5};
  pp::sequence_input big;
  big.a = {3, 1, 4, 1, 5, 9, 2, 6};
  tab.create("grown", small);
  session_delta app;
  app.append = {9, 2, 6};
  session_desc g1 = tab.apply("grown", app);
  session_desc d0 = tab.create("direct", big);
  EXPECT_EQ(g1.fp, d0.fp);
  EXPECT_EQ(g1.elems, 8u);

  // update round-trips the fingerprint too.
  session_delta up, undo;
  up.update = {{1, 77}};
  undo.update = {{1, 1}};
  session_desc u1 = tab.apply("grown", up);
  EXPECT_NE(u1.fp, d0.fp);
  EXPECT_EQ(tab.apply("grown", undo).fp, d0.fp);

  // Weighted LIS instances are not sessionable (deltas would need a weight
  // channel the protocol does not carry).
  pp::sequence_input weighted;
  weighted.a = {1, 2};
  weighted.weights = {3, 4};
  EXPECT_THROW(tab.create("w", weighted), session_error);
}

TEST(Session, DeltaValidation) {
  session_table tab(0);
  tab.create("p", path_graph(8));
  session_delta bad;
  bad.add_edges = {{7, 8, 1}};  // endpoint 8 out of range
  EXPECT_THROW(tab.apply("p", bad), session_error);
  session_delta bad2;
  bad2.source = 8;
  EXPECT_THROW(tab.apply("p", bad2), session_error);
  session_delta seq_on_graph;
  seq_on_graph.append = {1};
  EXPECT_THROW(tab.apply("p", seq_on_graph), session_error);
  EXPECT_THROW(tab.apply("nope", session_delta{}), session_error);

  pp::sequence_input s;
  s.a = {1, 2, 3};
  tab.create("s", s);
  session_delta oob;
  oob.update = {{3, 9}};  // index 3 out of range
  EXPECT_THROW(tab.apply("s", oob), session_error);
  session_delta graph_on_seq;
  graph_on_seq.add_edges = {{0, 1, 1}};
  EXPECT_THROW(tab.apply("s", graph_on_seq), session_error);

  // Failed deltas install nothing.
  EXPECT_EQ(tab.describe("p").version, 0u);
  EXPECT_EQ(tab.describe("s").version, 0u);
}

TEST(Session, SnapshotIsolationAcrossDeltas) {
  // A pinned snapshot is immutable: deltas installed after the pin change
  // neither its materialized graph nor its solve result.
  session_table tab(0);
  tab.create("p", path_graph(6));
  snapshot_input v0 = tab.snapshot("p");
  std::vector<int64_t> before = dijkstra_dist(v0);
  EXPECT_EQ(before[5], 50);  // five weight-10 hops

  session_delta shortcut;
  shortcut.add_edges = {{0, 5, 7}};
  tab.apply("p", shortcut);

  snapshot_input v1 = tab.snapshot("p");
  EXPECT_EQ(base_of(v0).g.num_edges(), 5u);  // unchanged by the delta
  EXPECT_EQ(base_of(v1).g.num_edges(), 6u);
  EXPECT_TRUE(pp_check::sssp_distances_equal(dijkstra_dist(v0), before));
  EXPECT_EQ(dijkstra_dist(v1)[5], 7);

  // Dropping the session does not invalidate outstanding pins.
  tab.drop("p");
  EXPECT_TRUE(pp_check::sssp_distances_equal(dijkstra_dist(v0), before));
}

TEST(Session, RetiredVersionBuffersAreReused) {
  // With no pins held, version k is built into the storage of version k-2,
  // which retired when k-1 was installed. Edge-growing deltas now and then
  // outgrow that storage, so it is replaced; every version must still be
  // exactly the model's.
  constexpr vertex_t n = 64;
  std::mt19937_64 gen(11);
  edge_map model;
  for (vertex_t u = 0; u + 1 < n; ++u) model[{u, u + 1}] = 10;
  session_table tab(0);
  tab.create("r", path_graph(n));
  // The head's adjacency storage; the pin is dropped at once.
  auto head_adj = [&] { return base_of(tab.snapshot("r")).g.adj().data(); };
  auto apply = [&](const session_delta& d) {
    for (const auto& e : d.add_edges) model[{e.u, e.v}] = e.w;
    for (const auto& e : d.remove_edges) model.erase({e.u, e.v});
    session_desc desc = tab.apply("r", d);
    snapshot_input s = tab.snapshot("r");
    EXPECT_TRUE(csr_matches(base_of(s).g, model)) << "version " << desc.version;
    EXPECT_EQ(desc.elems, model.size());
    EXPECT_EQ(desc.fp, fresh_fp(from_model(n, model, 0))) << "version " << desc.version;
  };
  auto reweight = [&](uint32_t w) {
    session_delta d;
    d.add_edges = {{0, 1, w}, {n - 2, n - 1, w + 1}};
    return d;
  };

  const vertex_t* v0 = head_adj();
  apply(reweight(3));
  const vertex_t* v1 = head_adj();
  EXPECT_NE(v1, v0);  // v0 was still the head while v1 was built
  // Take every free block near v0's adjacency size, so that had v0's
  // storage been freed, the allocator could not hand it to v2 by chance.
  std::vector<std::vector<vertex_t>> soak;
  soak.reserve(4 * 48);
  for (size_t len = 48; len < 96; ++len)
    for (int copy = 0; copy < 4; ++copy) soak.emplace_back(len);
  apply(reweight(4));
  EXPECT_EQ(head_adj(), v0);  // v2 lives in retired v0's storage

  // Nine growing deltas: three inserts and one removal each.
  for (int round = 0; round < 9; ++round) {
    session_delta d;
    while (d.add_edges.size() < 3) {
      auto u = static_cast<vertex_t>(gen() % n), v = static_cast<vertex_t>(gen() % n);
      if (!model.count({u, v})) d.add_edges.push_back({u, v, 1 + static_cast<uint32_t>(gen() % 9)});
    }
    auto it = model.begin();
    std::advance(it, static_cast<long>(gen() % model.size()));
    d.remove_edges = {{it->first.first, it->first.second}};
    apply(d);
  }

  // Once the graph stops growing, storage cycles again: two versions on,
  // the head is back in the storage of today's head.
  const vertex_t* vk = head_adj();
  apply(reweight(5));
  apply(reweight(6));
  EXPECT_EQ(head_adj(), vk);
}

TEST(Session, PinnedVersionsSurviveRecycling) {
  // v0 and v2 stay pinned while six more deltas recycle retired versions'
  // storage: each pinned CSR stays byte-equal to a copy taken at pin time
  // and still hashes to the fingerprint it was pinned with.
  constexpr vertex_t n = 500;
  session_table tab(0);
  tab.create("p", registry::instance().make_input("sssp", n, 4));
  struct pinned {
    snapshot_input s;
    std::vector<size_t> offsets;
    std::vector<vertex_t> adj;
    std::vector<uint32_t> wts;
  };
  auto pin = [&] {
    snapshot_input s = tab.snapshot("p");
    const wgraph& g = base_of(s).g;
    return pinned{s,
                  {g.offsets().begin(), g.offsets().end()},
                  {g.adj().begin(), g.adj().end()},
                  {g.wts().begin(), g.wts().end()}};
  };
  std::vector<pinned> pins{pin()};
  for (vertex_t i = 0; i < 8; ++i) {
    if (i == 2) pins.push_back(pin());
    // Four inserts and, from the head, one removal and one reweight.
    snapshot_input cur = tab.snapshot("p");
    const wgraph& head = base_of(cur).g;
    session_delta d;
    for (vertex_t j = 0; j < 4; ++j)
      d.add_edges.push_back({(i * 97 + j) % n, (i * 31 + 7 * j + 1) % n, 2});
    for (vertex_t u = i * 53 % n; d.remove_edges.empty() || d.add_edges.size() < 5;
         u = (u + 1) % n) {
      auto nbrs = head.out_neighbors(u);
      if (nbrs.empty()) continue;
      if (d.remove_edges.empty()) {
        d.remove_edges.push_back({u, nbrs.front()});
      } else if (nbrs.size() > 1) {
        d.add_edges.push_back({u, nbrs.back(), 1000});
      }
    }
    tab.apply("p", d);

    for (const auto& p : pins) {
      SCOPED_TRACE("v" + std::to_string(p.s.version) + " after delta " + std::to_string(i));
      const wgraph& g = base_of(p.s).g;
      EXPECT_TRUE(std::ranges::equal(g.offsets(), p.offsets));
      EXPECT_TRUE(std::ranges::equal(g.adj(), p.adj));
      EXPECT_TRUE(std::ranges::equal(g.wts(), p.wts));
      EXPECT_EQ(fresh_fp(*p.s.base), p.s.fp);
    }
  }
  EXPECT_EQ(tab.describe("p").version, 8u);
}

// The incremental solvers this file runs on session snapshots.
const std::set<std::string> kIncremental = {"sssp/incremental"};

TEST(Session, EveryIncrementalSolverIsExercised) {
  // A sequential solver that names a reference re-solves from session
  // hints; each must be exact against that reference here.
  for (const auto& s : registry::instance().solvers()) {
    if (s.paradigm == pp::solver_paradigm::sequential && !s.reference.empty()) {
      EXPECT_TRUE(kIncremental.count(s.name)) << s.name << " is not exercised by test_session";
    }
  }
}

TEST(Session, IncrementalSolveIsExact) {
  // sssp/incremental on a snapshot carrying (prior distances, inserted
  // edges) must be BIT-IDENTICAL to its registered reference — the
  // acceptance criterion the serving_sessions bench also enforces.
  const std::string& reference = registry::instance().info("sssp/incremental")->reference;
  session_table tab(0);
  tab.create("g", registry::instance().make_input("sssp", 4000, 11));
  snapshot_input v0 = tab.snapshot("g");
  EXPECT_EQ(v0.prior_dist, nullptr);  // no solve yet

  std::vector<int64_t> d0 = dijkstra_dist(v0);
  tab.note_solve("g", 0, d0);
  EXPECT_TRUE(tab.describe("g").hints);

  // Insertions (and weight decreases) keep the labels usable.
  session_delta ins;
  for (vertex_t i = 0; i < 16; ++i)
    ins.add_edges.push_back({i * 7 % 4000, (i * 131 + 9) % 4000, 1 + i % 3});
  tab.apply("g", ins);
  snapshot_input v1 = tab.snapshot("g");
  ASSERT_NE(v1.prior_dist, nullptr);
  ASSERT_NE(v1.inserted_edges, nullptr);
  EXPECT_FALSE(v1.inserted_edges->empty());

  auto inc = registry::run("sssp/incremental", v1);
  auto ref = registry::run(reference, v1);
  const auto& inc_d = std::get<pp::sssp_result>(inc.value).dist;
  const auto& ref_d = std::get<pp::sssp_result>(ref.value).dist;
  EXPECT_TRUE(pp_check::sssp_distances_equal(inc_d, ref_d));

  // Structural checker agrees (the same one test_relaxed trusts).
  std::string why;
  EXPECT_TRUE(pp_check::structurally_valid("sssp/incremental", problem_input{v1}, inc.value,
                                           ref.value, &why))
      << why;

  // Removals invalidate the labels: the next snapshot is hint-free and
  // sssp/incremental falls back to from-scratch — still exact.
  tab.note_solve("g", v1.version, ref_d);
  session_delta rm;
  rm.remove_edges = {{ins.add_edges[0].u, ins.add_edges[0].v}};
  tab.apply("g", rm);
  EXPECT_FALSE(tab.describe("g").hints);
  snapshot_input v2 = tab.snapshot("g");
  EXPECT_EQ(v2.prior_dist, nullptr);
  auto inc2 = registry::run("sssp/incremental", v2);
  auto ref2 = registry::run(reference, v2);
  EXPECT_TRUE(pp_check::sssp_distances_equal(std::get<pp::sssp_result>(inc2.value).dist,
                                             std::get<pp::sssp_result>(ref2.value).dist));
}

TEST(Session, StaleSolveNeverClobbersNewerLabels) {
  session_table tab(0);
  tab.create("g", path_graph(8));
  std::vector<int64_t> d0 = dijkstra_dist(tab.snapshot("g"));
  session_delta shortcut;
  shortcut.add_edges = {{0, 7, 1}};
  tab.apply("g", shortcut);
  std::vector<int64_t> d1 = dijkstra_dist(tab.snapshot("g"));
  tab.note_solve("g", 1, d1);
  EXPECT_TRUE(tab.describe("g").hints);

  // A straggler solve of version 0 lands late: it must not replace the
  // version-1 labels (its distances are stale upper bounds at best).
  tab.note_solve("g", 0, d0);
  snapshot_input s = tab.snapshot("g");
  ASSERT_NE(s.prior_dist, nullptr);
  EXPECT_TRUE(pp_check::sssp_distances_equal(*s.prior_dist, d1));

  // Feeding a dropped/unknown session is a silent no-op, not an error —
  // eviction racing a solve completion is an expected shape.
  tab.drop("g");
  tab.note_solve("g", 1, d1);
}

TEST(Session, LruEvictionBoundsTheTable) {
  session_table tab(2);
  tab.create("a", path_graph(4));
  tab.create("b", path_graph(4));
  EXPECT_EQ(tab.size(), 2u);
  EXPECT_EQ(tab.evictions(), 0u);

  // Touch "a" (snapshot counts as use), then create "c": "b" is the LRU
  // entry and must be the one evicted.
  snapshot_input pin = tab.snapshot("a");
  tab.create("c", path_graph(5));
  EXPECT_EQ(tab.size(), 2u);
  EXPECT_EQ(tab.evictions(), 1u);
  EXPECT_NO_THROW(tab.describe("a"));
  EXPECT_NO_THROW(tab.describe("c"));
  EXPECT_THROW(tab.describe("b"), session_error);

  // The pinned snapshot outlives even its own session's eviction.
  tab.create("d", path_graph(6));
  tab.create("e", path_graph(7));
  EXPECT_THROW(tab.describe("a"), session_error);
  EXPECT_EQ(dijkstra_dist(pin)[3], 30);
}

TEST(Session, ReadersNeverBlockTheWriter) {
  // The store's locking contract: readers pin version v (and HOLD those
  // pins) while the writer installs v+1..v+K. If snapshot() readers could
  // block apply(), this test would deadlock; under TSan it additionally
  // proves the head handoff is race-free.
  session_table tab(0);
  tab.create("g", registry::instance().make_input("sssp", 2000, 3));

  constexpr int kDeltas = 40;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> max_seen{0};
  std::vector<std::thread> readers;
  std::vector<std::vector<snapshot_input>> held(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        snapshot_input s = tab.snapshot("g");
        // Versions a single reader observes are monotone.
        EXPECT_GE(s.version, last);
        last = s.version;
        // Keep every ~8th pin alive for the whole test: live readers of
        // OLD versions while the writer keeps installing new ones.
        if (held[t].size() < 16 && s.version % 8 == static_cast<uint64_t>(t) % 8)
          held[t].push_back(std::move(s));
        uint64_t prev = max_seen.load(std::memory_order_relaxed);
        while (last > prev &&
               !max_seen.compare_exchange_weak(prev, last, std::memory_order_relaxed)) {
        }
      }
    });
  }

  session_delta d;
  for (int i = 0; i < kDeltas; ++i) {
    d.add_edges = {{static_cast<vertex_t>(i % 2000),
                    static_cast<vertex_t>((i * 37 + 5) % 2000), 2}};
    session_desc desc = tab.apply("g", d);
    EXPECT_EQ(desc.version, static_cast<uint64_t>(i + 1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_EQ(tab.describe("g").version, static_cast<uint64_t>(kDeltas));
  EXPECT_LE(max_seen.load(), static_cast<uint64_t>(kDeltas));
  // The held pins still materialize their own (old) versions.
  for (auto& hs : held)
    for (auto& s : hs) EXPECT_EQ(base_of(s).g.num_vertices(), 2000u);
}

TEST(Session, ConcurrentSolveAndDeltaAgree) {
  // Solves racing deltas read consistent snapshots: whatever version a
  // solve pinned, its result equals a quiet re-solve of that same pin.
  session_table tab(0);
  tab.create("g", path_graph(64));
  std::vector<std::pair<snapshot_input, std::vector<int64_t>>> solved;
  std::mutex solved_m;
  std::thread solver([&] {
    for (int i = 0; i < 12; ++i) {
      snapshot_input s = tab.snapshot("g");
      std::vector<int64_t> d = dijkstra_dist(s);
      std::lock_guard<std::mutex> lk(solved_m);
      solved.emplace_back(std::move(s), std::move(d));
    }
  });
  for (int i = 0; i < 24; ++i) {
    session_delta d;
    d.add_edges = {{static_cast<vertex_t>(i % 63), static_cast<vertex_t>(63 - i % 63), 3}};
    tab.apply("g", d);
  }
  solver.join();
  for (auto& [snap, dist] : solved)
    EXPECT_TRUE(pp_check::sssp_distances_equal(dijkstra_dist(snap), dist));
}

TEST(Session, SolvesDroppingTheirPinsRacingDeltasAgree) {
  // Like ConcurrentSolveAndDeltaAgree, but the reader drops each pin right
  // after solving, so the last pin of a version (and with it the return of
  // its storage to the spare slot) often falls on the reader thread while
  // apply() takes the slot. Each solve must equal a solve of its version
  // rebuilt from the model.
  constexpr vertex_t n = 64;
  constexpr int kDeltas = 48;
  std::vector<edge_map> models(1);
  for (vertex_t u = 0; u + 1 < n; ++u) models[0][{u, u + 1}] = 10;
  std::vector<session_delta> deltas(kDeltas);
  for (int i = 0; i < kDeltas; ++i) {
    const auto u = static_cast<vertex_t>(i % 63);
    deltas[i].add_edges = {{u, 63 - u, 3}};
    if (i % 3 == 2) deltas[i].remove_edges = {{(u * 5) % 63, (u * 5) % 63 + 1}};
    edge_map next = models.back();
    for (const auto& e : deltas[i].add_edges) next[{e.u, e.v}] = e.w;
    for (const auto& e : deltas[i].remove_edges) next.erase({e.u, e.v});
    models.push_back(std::move(next));
  }

  session_table tab(0);
  tab.create("g", path_graph(n));
  std::atomic<bool> started{false}, stop{false};
  std::vector<std::pair<uint64_t, std::vector<int64_t>>> solved;
  std::thread solver([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      snapshot_input s = tab.snapshot("g");
      started.store(true, std::memory_order_relaxed);
      solved.emplace_back(s.version, dijkstra_dist(s));
    }  // the pin drops here
  });
  while (!started.load(std::memory_order_relaxed)) std::this_thread::yield();
  for (const auto& d : deltas) tab.apply("g", d);
  stop.store(true, std::memory_order_relaxed);
  solver.join();

  for (const auto& [version, dist] : solved)
    EXPECT_TRUE(pp_check::sssp_distances_equal(dijkstra_dist(from_model(n, models[version], 0)),
                                               dist))
        << "version " << version;
}

TEST(Session, EngineCacheHitsAcrossVersionsByContent) {
  // The engine's result cache keys on (solver, input fp, seed). Session
  // versions with the SAME content (an empty delta) must hit; a content
  // change must miss. In-flight dedup gets the same addressing for free.
  pp::serve::engine_options opt;
  opt.max_inflight_runs = 1;
  opt.workers_per_run = 1;
  opt.batch_window = std::chrono::microseconds(0);
  opt.ctx = pp::context{}.with_backend(pp::backend_kind::native).with_workers(1).with_seed(5);
  pp::serve::engine eng(opt);
  session_table tab(0);
  tab.create("g", registry::instance().make_input("sssp", 1000, 7));

  auto solve = [&](const char* solver) {
    pp::serve::request req;
    req.solver = solver;
    req.input = tab.snapshot("g");
    req.seed = 42;
    return eng.submit(std::move(req)).get();
  };

  pp::serve::response r0 = solve("sssp/dijkstra");
  ASSERT_TRUE(r0.ok()) << r0.error;
  EXPECT_FALSE(r0.cached);

  pp::serve::response r1 = solve("sssp/dijkstra");  // same version
  ASSERT_TRUE(r1.ok()) << r1.error;
  EXPECT_TRUE(r1.cached);

  tab.apply("g", session_delta{});  // v1, identical content
  EXPECT_EQ(tab.describe("g").version, 1u);
  pp::serve::response r2 = solve("sssp/dijkstra");
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_TRUE(r2.cached) << "empty delta changed the fingerprint";
  EXPECT_EQ(pp::score_of(r2.result.value), pp::score_of(r0.result.value));

  session_delta d;
  d.add_edges = {{1, 2, 1}};
  tab.apply("g", d);  // v2, new content
  pp::serve::response r3 = solve("sssp/dijkstra");
  ASSERT_TRUE(r3.ok()) << r3.error;
  EXPECT_FALSE(r3.cached) << "content change must not be answered from cache";
  eng.stop();
}

TEST(Session, EngineSessionAffinityCompletesInOrderTraffic) {
  // Interleaved session solves and deltas through the engine: every solve
  // completes ok and scores match a quiet re-solve of the version each one
  // pinned (correctness here is that nothing deadlocks, drops, or mixes
  // inputs).
  pp::serve::engine_options opt;
  opt.max_inflight_runs = 2;
  opt.workers_per_run = 1;
  opt.batch_window = std::chrono::microseconds(50);
  opt.ctx = pp::context{}.with_backend(pp::backend_kind::native).with_workers(1).with_seed(9);
  pp::serve::engine eng(opt);
  session_table tab(0);
  tab.create("s", path_graph(128));

  std::vector<std::pair<snapshot_input, std::future<pp::serve::response>>> futs;
  for (int i = 0; i < 10; ++i) {
    snapshot_input snap = tab.snapshot("s");
    pp::serve::request req;
    req.solver = "sssp/dijkstra";
    req.input = snap;
    req.seed = 100 + i;
    futs.emplace_back(std::move(snap), eng.submit(std::move(req)));
    session_delta d;
    d.add_edges = {{0, static_cast<vertex_t>(i + 2), static_cast<uint32_t>(i + 1)}};
    tab.apply("s", d);
  }
  for (auto& [snap, fut] : futs) {
    pp::serve::response r = fut.get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(pp_check::sssp_distances_equal(
        std::get<pp::sssp_result>(r.result.value).dist, dijkstra_dist(snap)));
  }
  eng.stop();
}

}  // namespace
