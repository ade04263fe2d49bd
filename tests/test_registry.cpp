// Tests for the solver registry (core/registry.h): every algorithm in
// src/algos/ is reachable through pp::registry::run, inputs come from the
// per-problem factories, the run_result envelope is filled in, and all
// solvers of one problem agree on the answer.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"

namespace {

using pp::registry;

const std::vector<std::string> kExpectedSolvers = {
    "activity/sequential",
    "activity/type1",
    "activity/type2",
    "activity_unweighted/euler",
    "activity_unweighted/parallel",
    "activity_unweighted/sequential",
    "coloring/sequential",
    "coloring/tas",
    "huffman/parallel",
    "huffman/sequential",
    "knapsack/parallel",
    "knapsack/sequential",
    "lis/parallel",
    "lis/sequential",
    "list_ranking/parallel",
    "list_ranking/sequential",
    "matching/rounds",
    "matching/sequential",
    "mis/rounds",
    "mis/sequential",
    "mis/tas",
    "shuffle/parallel",
    "shuffle/sequential",
    "sssp/bellman_ford",
    "sssp/crauser",
    "sssp/delta_stepping",
    "sssp/dijkstra",
    "sssp/phase_parallel",
    "whac/parallel",
    "whac/sequential",
};

TEST(Registry, AllBuiltinSolversRegistered) {
  std::set<std::string> names;
  for (const auto& s : registry::instance().solvers()) {
    names.insert(s.name);
    EXPECT_FALSE(s.problem.empty()) << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
  }
  for (const auto& want : kExpectedSolvers)
    EXPECT_TRUE(names.count(want)) << "missing solver: " << want;
}

// check_solver_roles accepts the live roster and rejects each broken
// role, naming the offending solver.
TEST(Registry, SolverRolesAreChecked) {
  EXPECT_NO_THROW(pp::check_solver_roles(registry::instance().solvers()));

  using enum pp::solver_paradigm;
  const pp::solver_info seq{.name = "a/sequential", .problem = "a", .paradigm = sequential};
  const pp::solver_info rounds{
      .name = "a/rounds", .problem = "a", .paradigm = phase, .reference = "a/sequential"};
  EXPECT_NO_THROW(pp::check_solver_roles(std::vector{seq, rounds}));

  auto rejects = [](std::vector<pp::solver_info> roster, const std::string& offender) {
    try {
      pp::check_solver_roles(roster);
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(offender + ":"), std::string::npos) << e.what();
      return;
    }
    ADD_FAILURE() << "roster with a broken " << offender << " was accepted";
  };
  pp::solver_info dangling{
      .name = "a/dangling", .problem = "a", .paradigm = phase, .reference = "a/missing"};
  rejects({seq, dangling}, "a/dangling");
  pp::solver_info chained{
      .name = "a/chained", .problem = "a", .paradigm = phase, .reference = "a/rounds"};
  rejects({seq, rounds, chained}, "a/chained");
  pp::solver_info other_problem{
      .name = "b/parallel", .problem = "b", .paradigm = phase, .reference = "a/sequential"};
  rejects({seq, other_problem}, "b/parallel");
  pp::solver_info no_twin{
      .name = "a/relaxed", .problem = "a", .paradigm = relaxed, .reference = "a/sequential"};
  rejects({seq, rounds, no_twin}, "a/relaxed");
  pp::solver_info phase_with_twin = rounds;
  phase_with_twin.phase_ref = "a/rounds";
  rejects({seq, phase_with_twin}, "a/rounds");
  pp::solver_info sequential_twin = no_twin;
  sequential_twin.phase_ref = "a/sequential";
  rejects({seq, rounds, sequential_twin}, "a/relaxed");
  pp::solver_info unchecked{.name = "a/unchecked", .problem = "a", .paradigm = phase};
  rejects({seq, unchecked}, "a/unchecked");
}

TEST(Registry, ProblemsRegistered) {
  std::set<std::string> names;
  for (const auto& p : registry::instance().problems()) names.insert(p.name);
  for (const char* want :
       {"lis", "activity", "graph", "sssp", "huffman", "knapsack", "list", "shuffle", "whac"})
    EXPECT_TRUE(names.count(want)) << "missing problem: " << want;
}

TEST(Registry, UnknownSolverThrows) {
  auto in = registry::instance().make_input("lis", 100, 1);
  EXPECT_THROW(registry::run("lis/no_such_variant", in), std::out_of_range);
  EXPECT_THROW(registry::instance().make_input("no_such_problem", 100, 1), std::out_of_range);
}

TEST(Registry, WrongInputAlternativeThrows) {
  auto in = registry::instance().make_input("huffman", 100, 1);
  EXPECT_THROW(registry::run("lis/parallel", in), std::invalid_argument);
  EXPECT_THROW(registry::run("mis/tas", in), std::invalid_argument);
}

TEST(Registry, EnvelopeIsFilled) {
  auto in = registry::instance().make_input("lis", 2'000, 5);
  pp::context ctx = pp::context{}.with_backend(pp::backend_kind::native).with_seed(5);
  auto res = registry::run("lis/parallel", in, ctx);
  EXPECT_EQ(res.solver, "lis/parallel");
  EXPECT_EQ(res.backend, pp::backend_kind::native);
  EXPECT_EQ(res.seed, 5u);
  EXPECT_GE(res.seconds, 0.0);
  EXPECT_GT(res.stats.rounds, 0u);
  // the envelope stats mirror the payload stats
  EXPECT_EQ(res.stats.rounds, pp::stats_of(res.value).rounds);
  const auto& lis = std::get<pp::lis_result>(res.value);
  EXPECT_GT(lis.length, 0);
  EXPECT_EQ(pp::score_of(res.value), lis.length);
  EXPECT_FALSE(pp::summary_of(res.value).empty());
}

TEST(Registry, EnvelopeReportsActualWorkerCount) {
  // A run asking for W workers on the native backend reports width W
  // (the leased pool really has W deques).
  auto in = registry::instance().make_input("lis", 1'000, 7);
  for (unsigned w : {1u, 2u, 3u}) {
    auto res = registry::run(
        "lis/parallel", in,
        pp::context{}.with_backend(pp::backend_kind::native).with_seed(7).with_workers(w));
    EXPECT_EQ(res.workers, w) << "workers=" << w;
  }
  auto seq = registry::run(
      "lis/parallel", in,
      pp::context{}.with_backend(pp::backend_kind::sequential).with_seed(7).with_workers(4));
  EXPECT_EQ(seq.workers, 1u);  // sequential is always width 1
}

TEST(Registry, ParallelLisMatchesSequentialPayload) {
  auto in = registry::instance().make_input("lis", 3'000, 11);
  auto seq = registry::run("lis/sequential", in);
  auto par = registry::run("lis/parallel", in);
  const auto& s = std::get<pp::lis_result>(seq.value);
  const auto& p = std::get<pp::lis_result>(par.value);
  EXPECT_EQ(s.dp, p.dp);
  EXPECT_EQ(s.length, p.length);
}

// Every phase and incremental solver computes its reference's canonical
// score on the same input — the cross-implementation contract the paper's
// Sec. 5/6 claims, enforced through the registry.
TEST(Registry, AllSolversOfAProblemAgree) {
  const std::map<std::string, size_t> problem_sizes = {
      {"lis", 2'000},   {"activity", 2'000}, {"graph", 1'500},   {"sssp", 1'500},
      {"huffman", 2'000}, {"knapsack", 2'000}, {"list", 2'000},    {"shuffle", 2'000},
      {"whac", 1'500},
  };
  auto& reg = registry::instance();
  std::map<std::string, pp::problem_input> inputs;
  for (const auto& [problem, n] : problem_sizes)
    inputs.emplace(problem, reg.make_input(problem, n, 3));

  for (const auto& s : reg.solvers()) {
    // Relaxed solvers answer structurally (test_relaxed), not by score.
    if (s.reference.empty() || s.paradigm == pp::solver_paradigm::relaxed) continue;
    const auto& input = inputs.at(s.problem);
    EXPECT_EQ(pp::score_of(registry::run(s.name, input).value),
              pp::score_of(registry::run(s.reference, input).value))
        << s.name << " disagrees with " << s.reference;
  }
}

TEST(RegistryBatch, EnvelopeAndAggregates) {
  auto& reg = registry::instance();
  std::vector<pp::problem_input> inputs;
  for (uint64_t s : {1u, 2u, 3u}) inputs.push_back(reg.make_input("lis", 1'500, s));
  pp::context ctx = pp::context{}.with_backend(pp::backend_kind::native).with_seed(9);

  auto batch = registry::run_batch("lis/parallel", inputs, ctx);
  ASSERT_EQ(batch.count(), 3u);
  ASSERT_EQ(batch.scores.size(), 3u);
  EXPECT_EQ(batch.solver, "lis/parallel");
  EXPECT_EQ(batch.backend, pp::backend_kind::native);
  EXPECT_EQ(batch.seed, 9u);
  EXPECT_GE(batch.workers, 1u);

  double total = 0;
  size_t rounds = 0;
  for (size_t i = 0; i < 3; ++i) {
    const auto& item = batch.items[i];
    // item i executed under the derived seed — the public batching contract
    EXPECT_EQ(item.seed, pp::derive_seed(9, i)) << i;
    EXPECT_EQ(item.solver, "lis/parallel");
    EXPECT_EQ(item.workers, batch.workers);
    EXPECT_EQ(batch.scores[i], pp::score_of(item.value));
    EXPECT_GT(item.stats.rounds, 0u);
    total += item.seconds;
    rounds += item.stats.rounds;
  }
  EXPECT_DOUBLE_EQ(batch.total_seconds, total);
  EXPECT_EQ(batch.total_rounds, rounds);
  EXPECT_LE(batch.min_seconds, batch.mean_seconds);
  EXPECT_LE(batch.mean_seconds, batch.total_seconds);
  EXPECT_GE(batch.p95_seconds, batch.min_seconds);
  EXPECT_NEAR(batch.mean_seconds, total / 3.0, 1e-12);
}

TEST(RegistryBatch, PercentileAggregatesOrdered) {
  // ISSUE 4 satellite: p50/p99 ride alongside min/mean/p95/max, and the
  // nearest-rank definition guarantees the ordering invariants
  // min <= p50 <= p95 <= p99 <= max and min <= mean <= max.
  auto& reg = registry::instance();
  std::vector<pp::problem_input> inputs;
  for (uint64_t s = 0; s < 12; ++s) inputs.push_back(reg.make_input("lis", 800 + 150 * s, s));
  auto batch = registry::run_batch("lis/parallel", inputs,
                                   pp::context{}.with_backend(pp::backend_kind::native));
  ASSERT_EQ(batch.count(), 12u);
  EXPECT_GT(batch.min_seconds, 0.0);
  EXPECT_LE(batch.min_seconds, batch.p50_seconds);
  EXPECT_LE(batch.p50_seconds, batch.p95_seconds);
  EXPECT_LE(batch.p95_seconds, batch.p99_seconds);
  EXPECT_LE(batch.p99_seconds, batch.max_seconds);
  EXPECT_LE(batch.min_seconds, batch.mean_seconds);
  EXPECT_LE(batch.mean_seconds, batch.max_seconds);
  EXPECT_LE(batch.max_seconds, batch.total_seconds);

  // Every percentile is an actual observed item time (nearest-rank).
  auto observed = [&](double x) {
    for (const auto& it : batch.items)
      if (it.seconds == x) return true;
    return false;
  };
  EXPECT_TRUE(observed(batch.p50_seconds));
  EXPECT_TRUE(observed(batch.p95_seconds));
  EXPECT_TRUE(observed(batch.p99_seconds));
  EXPECT_TRUE(observed(batch.max_seconds));

  // recompute_aggregates is idempotent over unchanged items.
  double p50 = batch.p50_seconds, p99 = batch.p99_seconds;
  batch.recompute_aggregates();
  EXPECT_DOUBLE_EQ(batch.p50_seconds, p50);
  EXPECT_DOUBLE_EQ(batch.p99_seconds, p99);

  // A single-item batch collapses every aggregate onto that item.
  auto one = registry::run_batch("lis/parallel", inputs[0], 1);
  EXPECT_DOUBLE_EQ(one.p50_seconds, one.items[0].seconds);
  EXPECT_DOUBLE_EQ(one.p99_seconds, one.items[0].seconds);
  EXPECT_DOUBLE_EQ(one.max_seconds, one.items[0].seconds);
}

TEST(RegistryBatch, ExplicitSeedsOverrideDerivation) {
  // batch_options::seeds (the micro-batching shape): item i executes
  // under exactly seeds[i], reproducible with standalone runs.
  auto& reg = registry::instance();
  std::vector<pp::problem_input> inputs;
  for (uint64_t s : {41u, 42u, 43u}) inputs.push_back(reg.make_input("lis", 900, s));
  pp::context ctx = pp::context{}.with_backend(pp::backend_kind::native).with_seed(1);

  pp::batch_options opts;
  opts.seeds = {901, 902, 903};
  auto batch = registry::run_batch("lis/parallel", inputs, ctx, opts);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batch.items[i].seed, opts.seeds[i]) << i;
    auto solo = registry::run("lis/parallel", inputs[i], ctx.with_seed(opts.seeds[i]));
    EXPECT_EQ(batch.scores[i], pp::score_of(solo.value)) << i;
  }

  // Size mismatch is rejected before any work happens.
  opts.seeds = {1, 2};
  EXPECT_THROW(registry::run_batch("lis/parallel", inputs, ctx, opts), std::invalid_argument);
}

TEST(RegistryBatch, MatchesLoopOfRuns) {
  // The amortized path must be invisible to results: batch item i ==
  // registry::run under the derived seed, score for score.
  auto& reg = registry::instance();
  std::vector<pp::problem_input> inputs;
  for (uint64_t s : {5u, 6u, 7u, 8u}) inputs.push_back(reg.make_input("sssp", 1'000, s));
  pp::context ctx = pp::context{}.with_backend(pp::backend_kind::native).with_seed(13);

  auto batch = registry::run_batch("sssp/phase_parallel", inputs, ctx);
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto solo = registry::run("sssp/phase_parallel", inputs[i],
                              ctx.with_seed(pp::derive_seed(13, i)));
    EXPECT_EQ(batch.scores[i], pp::score_of(solo.value)) << i;
    EXPECT_EQ(batch.items[i].stats.rounds, solo.stats.rounds) << i;
  }
}

TEST(RegistryBatch, ShuffledOrderSameResultsPerIndex) {
  auto& reg = registry::instance();
  std::vector<pp::problem_input> inputs;
  for (uint64_t s : {11u, 12u, 13u, 14u, 15u}) inputs.push_back(reg.make_input("lis", 1'000, s));
  pp::context ctx = pp::context{}.with_backend(pp::backend_kind::native).with_seed(21);

  auto given = registry::run_batch("lis/parallel", inputs, ctx);
  pp::batch_options shuffled;
  shuffled.order = pp::batch_options::item_order::shuffled;
  auto shuf = registry::run_batch("lis/parallel", inputs, ctx, shuffled);
  EXPECT_EQ(given.scores, shuf.scores);
  for (size_t i = 0; i < inputs.size(); ++i)
    EXPECT_EQ(given.items[i].seed, shuf.items[i].seed) << i;
}

TEST(RegistryBatch, RepeatOverloadSharesOneInput) {
  auto in = registry::instance().make_input("lis", 1'200, 31);
  pp::context ctx = pp::context{}.with_backend(pp::backend_kind::native).with_seed(31);
  pp::batch_options opts;
  opts.derive_seeds = false;  // the --repeats shape: identical context every time
  auto batch = registry::run_batch("lis/parallel", in, 4, ctx, opts);
  ASSERT_EQ(batch.count(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(batch.items[i].seed, 31u) << i;
    EXPECT_EQ(batch.scores[i], batch.scores[0]) << i;
    EXPECT_EQ(batch.items[i].stats.rounds, batch.items[0].stats.rounds) << i;
  }
}

TEST(RegistryBatch, EmptyBatchIsValid) {
  auto batch = registry::run_batch("lis/parallel", std::span<const pp::problem_input>{});
  EXPECT_EQ(batch.count(), 0u);
  EXPECT_EQ(batch.total_seconds, 0.0);
  EXPECT_EQ(batch.total_rounds, 0u);
}

TEST(RegistryBatch, ErrorsMatchRunErrors) {
  auto in = registry::instance().make_input("huffman", 200, 1);
  std::vector<pp::problem_input> inputs{in};
  EXPECT_THROW(registry::run_batch("lis/no_such_variant", inputs), std::out_of_range);
  EXPECT_THROW(registry::run_batch("lis/parallel", inputs), std::invalid_argument);
}

TEST(RegistryJson, RunEnvelopeSerializes) {
  auto in = registry::instance().make_input("lis", 800, 3);
  auto res = registry::run("lis/parallel", in,
                           pp::context{}.with_backend(pp::backend_kind::native).with_seed(3));
  std::string j = pp::to_json(res);
  EXPECT_NE(j.find("\"solver\": \"lis/parallel\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"backend\": \"native\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"seed\": 3"), std::string::npos) << j;
  EXPECT_NE(j.find("\"score\": "), std::string::npos) << j;
  EXPECT_NE(j.find("\"stats\": {"), std::string::npos) << j;
  EXPECT_NE(j.find("\"rounds\": "), std::string::npos) << j;
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
}

TEST(RegistryJson, BatchEnvelopeSerializes) {
  auto& reg = registry::instance();
  std::vector<pp::problem_input> inputs;
  for (uint64_t s : {1u, 2u, 3u}) inputs.push_back(reg.make_input("lis", 600, s));
  auto batch = registry::run_batch("lis/parallel", inputs);
  std::string j = pp::to_json(batch);
  EXPECT_NE(j.find("\"count\": 3"), std::string::npos) << j;
  EXPECT_NE(j.find("\"items\": ["), std::string::npos) << j;
  EXPECT_NE(j.find("\"scores\": ["), std::string::npos) << j;
  EXPECT_NE(j.find("\"total_seconds\": "), std::string::npos) << j;
  EXPECT_NE(j.find("\"p50_seconds\": "), std::string::npos) << j;
  EXPECT_NE(j.find("\"p95_seconds\": "), std::string::npos) << j;
  EXPECT_NE(j.find("\"p99_seconds\": "), std::string::npos) << j;
  EXPECT_NE(j.find("\"max_seconds\": "), std::string::npos) << j;
  // one per-item envelope per input
  size_t count = 0;
  for (size_t pos = 0; (pos = j.find("\"solver\": \"lis/parallel\"", pos)) != std::string::npos;
       ++pos)
    ++count;
  EXPECT_EQ(count, 4u);  // the batch header + 3 items
}

TEST(Registry, EveryRegisteredSolverRunsOnItsDefaultInput) {
  auto& reg = registry::instance();
  std::map<std::string, pp::problem_input> inputs;
  for (const auto& s : reg.solvers()) {
    if (!inputs.count(s.problem)) inputs.emplace(s.problem, reg.make_input(s.problem, 500, 9));
    auto res = registry::run(s.name, inputs.at(s.problem));
    EXPECT_EQ(res.solver, s.name);
    EXPECT_GE(res.seconds, 0.0) << s.name;
  }
}

// The summary line names what its score is. Keyed by family (the text
// before '/'), so a new solver in a known family is covered without an
// edit, and a new family fails until it is listed here.
TEST(Registry, SummaryLabelMatchesSolverFamily) {
  const std::map<std::string, std::string> kLabels = {
      {"activity", "activity(best)"},   {"activity_unweighted", "activity(count)"},
      {"coloring", "coloring(colors)"}, {"huffman", "huffman(wpl)"},
      {"knapsack", "knapsack(best)"},   {"lis", "lis(length)"},
      {"list_ranking", "list(checksum)"}, {"matching", "matching(size)"},
      {"mis", "mis(size)"},             {"shuffle", "shuffle(checksum)"},
      {"sssp", "sssp(dist-checksum)"},  {"whac", "whac(best)"},
  };
  auto& reg = registry::instance();
  std::map<std::string, pp::problem_input> inputs;
  for (const auto& s : reg.solvers()) {
    std::string family = s.name.substr(0, s.name.find('/'));
    auto label = kLabels.find(family);
    ASSERT_NE(label, kLabels.end()) << "no label listed for family " << family;
    if (!inputs.count(s.problem)) inputs.emplace(s.problem, reg.make_input(s.problem, 300, 5));
    auto summary = pp::summary_of(registry::run(s.name, inputs.at(s.problem)).value);
    EXPECT_EQ(summary.rfind(label->second + "=", 0), 0u) << s.name << ": " << summary;
  }
}

}  // namespace
