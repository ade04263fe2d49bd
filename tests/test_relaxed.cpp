// The relaxed k-MultiQueue execution paradigm (parallel/multiqueue.h +
// src/algos/relaxed.cpp): structural validity across backends, worker
// counts, and relaxation factors; scheduler counters through the
// run_result envelope; paradigm classification; and the cancellation
// unwind. This binary also runs under the clang TSan CI job, which is what
// makes the MultiQueue's lock/atomic discipline machine-checked.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checkers.h"
#include "core/registry.h"
#include "graph/generators.h"
#include "parallel/multiqueue.h"
#include "test_backends.h"

namespace {

using pp::registry;

pp::context native2() {
  return pp::context{}.with_backend(pp::backend_kind::native).with_workers(2);
}

// The four relaxed solvers and the reference each is validated against
// (the family's sequential solver — exactly what test_soak uses).
const std::vector<std::pair<std::string, std::string>> kRelaxed = {
    {"mis/relaxed", "mis/sequential"},
    {"coloring/relaxed", "coloring/sequential"},
    {"matching/relaxed", "matching/sequential"},
    {"sssp/relaxed", "sssp/dijkstra"},
};

TEST(Relaxed, StructurallyValidAcrossBackendsAndK) {
  auto& reg = registry::instance();
  const uint64_t seeds[] = {11, 42};
  const unsigned ks[] = {1, 4, 16, 64};
  const size_t n = 700;

  for (uint64_t seed : seeds) {
    for (const auto& [name, ref_name] : kRelaxed) {
      const auto* info = reg.info(name);
      ASSERT_NE(info, nullptr) << name;
      auto input = reg.make_input(info->problem, n, seed);
      auto ref = registry::run(
          ref_name, input,
          pp::context{}.with_backend(pp::backend_kind::sequential).with_seed(seed));
      for (auto b : pp_test::backends_under_test()) {
        for (unsigned k : ks) {
          auto res = registry::run(name, input,
                                   pp::context{}.with_backend(b).with_seed(seed).with_relax_k(k));
          ASSERT_EQ(res.status, pp::run_status::ok) << name;
          std::string why;
          EXPECT_TRUE(pp_check::structurally_valid(name, input, res.value, ref.value, &why))
              << why << " (backend=" << pp::backend_name(b) << " seed=" << seed << " k=" << k
              << ")";
        }
      }
    }
  }
}

TEST(Relaxed, SchedulerCountersReachTheEnvelope) {
  auto& reg = registry::instance();
  const size_t n = 900;
  auto input = reg.make_input("graph", n, 5);
  auto res = registry::run("mis/relaxed", input, native2().with_seed(7));
  ASSERT_EQ(res.status, pp::run_status::ok);
  // Every vertex is decided by some claim, so claims >= n; retries and
  // wasted pops are extra.
  EXPECT_GE(res.stats.popped, n);
  EXPECT_EQ(res.stats.processed, n);
  EXPECT_GE(res.stats.popped, res.stats.wasted);
  // The counters ride the JSON envelope (the ppdriver/serving surface).
  std::string json = pp::to_json(res);
  EXPECT_NE(json.find("\"popped\""), std::string::npos);
  EXPECT_NE(json.find("\"wasted\""), std::string::npos);
  EXPECT_NE(json.find("\"retries\""), std::string::npos);
}

TEST(Relaxed, RelaxKIsAConfigKnob) {
  pp::context a = native2().with_seed(3);
  EXPECT_TRUE(a == a.with_relax_k(a.relax_k));
  EXPECT_FALSE(a == a.with_relax_k(a.relax_k + 1));  // different config, not a benign twin
  EXPECT_EQ(pp::multiqueue::shard_count(1), 2u);     // k=1: the contended baseline
  EXPECT_EQ(pp::multiqueue::shard_count(4), 8u);     // 2k shards otherwise
  EXPECT_EQ(pp::multiqueue::shard_count(64), 128u);
}

TEST(Relaxed, ParadigmClassification) {
  auto& reg = registry::instance();
  auto paradigm = [&](const char* name) {
    const auto* info = reg.info(name);
    EXPECT_NE(info, nullptr) << name;
    return pp::paradigm_of(*info);
  };
  EXPECT_EQ(paradigm("mis/relaxed"), pp::solver_paradigm::relaxed);
  EXPECT_EQ(paradigm("sssp/relaxed"), pp::solver_paradigm::relaxed);
  EXPECT_EQ(paradigm("mis/rounds"), pp::solver_paradigm::phase);
  EXPECT_EQ(paradigm("mis/sequential"), pp::solver_paradigm::sequential);
  EXPECT_EQ(paradigm("sssp/dijkstra"), pp::solver_paradigm::sequential);
  EXPECT_EQ(paradigm("sssp/incremental"), pp::solver_paradigm::sequential);
  EXPECT_EQ(paradigm("sssp/phase_parallel"), pp::solver_paradigm::phase);
  EXPECT_TRUE(pp::accepts_relax_knob(*reg.info("matching/relaxed")));
  EXPECT_FALSE(pp::accepts_relax_knob(*reg.info("matching/rounds")));
  // Every registered */relaxed solver is classified relaxed (and nothing
  // else is), so the golden-table exemption and the list column stay honest.
  for (const auto& s : reg.solvers()) {
    bool name_says_relaxed = s.name.size() > 8 && s.name.rfind("/relaxed") == s.name.size() - 8;
    EXPECT_EQ(pp::paradigm_of(s) == pp::solver_paradigm::relaxed, name_says_relaxed) << s.name;
  }
}

TEST(Relaxed, PreCancelledTokenUnwindsEveryRelaxedSolver) {
  auto& reg = registry::instance();
  for (const auto& [name, ref_name] : kRelaxed) {
    (void)ref_name;
    const auto* info = reg.info(name);
    ASSERT_NE(info, nullptr) << name;
    auto in = reg.make_input(info->problem, 2'000, 7);
    pp::cancel_token tok = pp::cancel_token::manual();
    tok.cancel();
    auto res = registry::run(name, in, native2().with_seed(3).with_cancel(tok));
    EXPECT_EQ(res.status, pp::run_status::cancelled) << name;
    EXPECT_TRUE(res.cancelled()) << name;
  }
}

TEST(Relaxed, MidRunCancelAbortsTheWorkerLoops) {
  // A token cancelled between claims must abort the loops cooperatively:
  // the run returns cancelled, never hangs, and never throws off a pool
  // worker. Use a deadline token that fires mid-drain.
  auto& reg = registry::instance();
  auto in = reg.make_input("sssp", 30'000, 13);
  pp::cancel_token tok = pp::cancel_token::manual();
  tok.cancel();  // pre-fire: deterministic under any machine speed
  auto res = registry::run("sssp/relaxed", in, native2().with_seed(5).with_cancel(tok));
  EXPECT_EQ(res.status, pp::run_status::cancelled);
}

TEST(Relaxed, MultiQueueDrainsToZeroInFlight) {
  // Direct scheduler test: N items, each claim re-inserts until its
  // counter hits zero — the in-flight counter must see every insert and
  // the run must drain exactly once per decrement chain.
  pp::context ctx = native2().with_seed(21).with_relax_k(4);
  pp::run_scope scope(ctx);
  constexpr uint32_t kItems = 2'000;
  pp::multiqueue q(ctx.relax_k);
  {
    pp::random_stream rs(ctx.seed);
    uint64_t draw = 0;
    for (uint32_t i = 0; i < kItems; ++i) q.push(i, i, rs, draw);
  }
  std::vector<std::atomic<uint32_t>> hits(kItems);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  auto c = pp::mq_run(ctx, q, [&](pp::mq_worker& w, uint64_t prio, uint32_t item) {
    if (hits[item].fetch_add(1, std::memory_order_relaxed) == 0 && item % 3 == 0)
      w.retry(prio, item);  // first claim of every third item goes around again
  });
  EXPECT_EQ(q.in_flight(), 0);
  uint64_t total_hits = 0;
  for (auto& h : hits) {
    EXPECT_GE(h.load(), 1u);
    total_hits += h.load();
  }
  EXPECT_EQ(c.popped, total_hits);
  const uint64_t reinserted = (kItems + 2) / 3;  // items 0, 3, 6, ...
  EXPECT_EQ(c.popped, static_cast<uint64_t>(kItems) + reinserted);
  // retries counts the re-inserts plus any empty-pop spins near the tail.
  EXPECT_GE(c.retries, reinserted);
}

TEST(Relaxed, SsspExactOnHighDiameterGrid) {
  // The input class the relaxed mode exists for: a weighted 2D mesh whose
  // phase solver pays one barrier per w*-window. Distances must still be
  // exactly Dijkstra's.
  pp::sssp_input in;
  in.g = pp::add_weights(pp::grid_graph(48, 48), 1, 8, 99);
  in.source = 0;
  pp::problem_input input = in;
  auto ref = registry::run(
      "sssp/dijkstra", input,
      pp::context{}.with_backend(pp::backend_kind::sequential).with_seed(1));
  for (auto b : pp_test::backends_under_test()) {
    auto res =
        registry::run("sssp/relaxed", input, pp::context{}.with_backend(b).with_seed(1));
    std::string why;
    EXPECT_TRUE(pp_check::structurally_valid("sssp/relaxed", input, res.value, ref.value, &why))
        << why << " (backend=" << pp::backend_name(b) << ")";
  }
}

}  // namespace
