// Cross-backend determinism, driven through the registry: the same seed
// and the same input must produce identical results AND identical round
// counts (phase_stats.rounds) on the sequential and native backends. This is the reproducibility contract of the library's
// stateless (seed, index)-hashed randomness: no random choice may depend
// on scheduling.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "test_backends.h"

namespace {

using pp::backend_kind;
using pp::registry;

using pp_test::kBackends;

pp::context ctx_for(backend_kind b, uint64_t seed) {
  return pp::context{}.with_backend(b).with_seed(seed);
}

TEST(Determinism, LisParallelAcrossBackends) {
  auto in = registry::instance().make_input("lis", 4'000, 17);
  auto ref = registry::run("lis/parallel", in, ctx_for(backend_kind::sequential, 17));
  const auto& ref_lis = std::get<pp::lis_result>(ref.value);
  for (auto b : kBackends) {
    auto res = registry::run("lis/parallel", in, ctx_for(b, 17));
    const auto& lis = std::get<pp::lis_result>(res.value);
    EXPECT_EQ(lis.dp, ref_lis.dp) << pp::backend_name(b);
    EXPECT_EQ(lis.length, ref_lis.length) << pp::backend_name(b);
    EXPECT_EQ(res.stats.rounds, ref.stats.rounds) << pp::backend_name(b);
  }
}

TEST(Determinism, MisAcrossBackends) {
  auto in = registry::instance().make_input("graph", 2'000, 23);
  auto ref = registry::run("mis/rounds", in, ctx_for(backend_kind::sequential, 23));
  const auto& ref_mis = std::get<pp::mis_result>(ref.value);
  for (auto b : kBackends) {
    auto res = registry::run("mis/rounds", in, ctx_for(b, 23));
    const auto& mis = std::get<pp::mis_result>(res.value);
    EXPECT_EQ(mis.in_mis, ref_mis.in_mis) << pp::backend_name(b);
    EXPECT_EQ(mis.mis_size, ref_mis.mis_size) << pp::backend_name(b);
    EXPECT_EQ(res.stats.rounds, ref.stats.rounds) << pp::backend_name(b);

    // The asynchronous TAS variant must select the identical set on every
    // backend too (its wake statistics are scheduling-dependent, the set
    // is not).
    auto tas = registry::run("mis/tas", in, ctx_for(b, 23));
    EXPECT_EQ(std::get<pp::mis_result>(tas.value).in_mis, ref_mis.in_mis)
        << "tas/" << pp::backend_name(b);
  }
}

TEST(Determinism, SsspAcrossBackends) {
  auto in = registry::instance().make_input("sssp", 2'000, 29);
  auto ref = registry::run("sssp/phase_parallel", in, ctx_for(backend_kind::sequential, 29));
  const auto& ref_sssp = std::get<pp::sssp_result>(ref.value);
  for (auto b : kBackends) {
    auto res = registry::run("sssp/phase_parallel", in, ctx_for(b, 29));
    const auto& sssp = std::get<pp::sssp_result>(res.value);
    EXPECT_EQ(sssp.dist, ref_sssp.dist) << pp::backend_name(b);
    EXPECT_EQ(res.stats.rounds, ref.stats.rounds) << pp::backend_name(b);
  }
}

TEST(Determinism, ResultsIndependentOfWorkerCount) {
  // ISSUE 2 satellite: on one backend, sweeping workers in {1, 2, hw} must
  // not change results OR round counts — width is a performance variable,
  // never a semantic one. (Per-width pools make this real on the native
  // backend: a workers=W run executes on exactly W deques.)
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 2;
  const unsigned widths[] = {1u, 2u, hw};

  // The Type-2 wake-up engines (lis, whac, activity/type2) also pin their
  // wake-up counters: bucket order is the one thing the pivot structure
  // could let depend on timing. SSSP pins its relaxation count. The TAS
  // solvers (mis/tas, coloring/tas) pin score and rounds; their wake-chain
  // depth (substeps) is timing-dependent.
  struct case_t {
    const char* problem;
    const char* solver;
    size_t n;
    uint64_t seed;
    pp::pivot_policy pivot = pp::pivot_policy::rightmost;
  };
  const case_t cases[] = {
      {"lis", "lis/parallel", 4'000, 17},
      {"lis", "lis/parallel", 4'000, 17, pp::pivot_policy::uniform_random},
      {"whac", "whac/parallel", 2'000, 19},
      {"activity", "activity/type2", 4'000, 31},
      {"graph", "mis/rounds", 2'000, 23},
      {"graph", "mis/tas", 2'000, 23},
      {"graph", "coloring/tas", 2'000, 23},
      {"sssp", "sssp/phase_parallel", 2'000, 29},
  };

  std::vector<backend_kind> parallel_backends;
  for (auto b : kBackends)
    if (b != backend_kind::sequential) parallel_backends.push_back(b);

  // Grain 0 is the default (the work floor keeps most loops at these sizes
  // inline); grain 1 makes every loop fork, so the parallel paths still
  // run (and race, if they can) at test sizes.
  for (auto b : parallel_backends) {
    for (const auto& c : cases) {
      auto in = registry::instance().make_input(c.problem, c.n, c.seed);
      const auto base = ctx_for(b, c.seed).with_pivot(c.pivot);
      auto ref = registry::run(c.solver, in, base.with_workers(1));
      EXPECT_EQ(ref.workers, 1u) << c.solver << "/" << pp::backend_name(b);
      for (size_t grain : {size_t{0}, size_t{1}}) {
        for (unsigned w : widths) {
          auto res = registry::run(c.solver, in, base.with_workers(w).with_grain(grain));
          const std::string where = std::string(c.solver) + "/" +
                                    std::string(pp::backend_name(b)) + " " +
                                    pp::pivot_policy_name(c.pivot) +
                                    " workers=" + std::to_string(w) +
                                    " grain=" + std::to_string(grain);
          EXPECT_EQ(res.workers, w) << where;
          EXPECT_EQ(pp::score_of(res.value), pp::score_of(ref.value)) << where;
          EXPECT_EQ(res.stats.rounds, ref.stats.rounds) << where;
          EXPECT_EQ(res.stats.wakeup_attempts, ref.stats.wakeup_attempts) << where;
          EXPECT_EQ(res.stats.avg_wakeups(), ref.stats.avg_wakeups()) << where;
          EXPECT_EQ(res.stats.relaxations, ref.stats.relaxations) << where;
        }
      }
    }
  }

  // Full-payload check on the richest case: identical dp arrays, not just
  // identical scalar scores.
  auto in = registry::instance().make_input("lis", 4'000, 17);
  auto ref = registry::run("lis/parallel", in, ctx_for(backend_kind::native, 17).with_workers(1));
  for (unsigned w : widths) {
    auto res = registry::run("lis/parallel", in, ctx_for(backend_kind::native, 17).with_workers(w));
    EXPECT_EQ(std::get<pp::lis_result>(res.value).dp, std::get<pp::lis_result>(ref.value).dp)
        << "workers=" << w;
  }
}

TEST(Determinism, BatchMatchesSequentialLoopForEverySolver) {
  // ISSUE 3 acceptance: for EVERY registered solver, run_batch under a
  // parallel backend at workers in {1, 2, hw} produces score-for-score the
  // results of a plain loop of registry::run on the sequential backend
  // with the same derived per-item seeds. Batching amortizes dispatch; it
  // must never change answers.
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 2;
  const unsigned widths[] = {1u, 2u, hw};
  const uint64_t base_seed = 77;
  const size_t n = 400;
  const size_t k = 3;  // items per batch

  std::vector<backend_kind> parallel_backends;
  for (auto b : kBackends)
    if (b != backend_kind::sequential) parallel_backends.push_back(b);

  auto& reg = registry::instance();
  for (const auto& s : reg.solvers()) {
    std::vector<pp::problem_input> inputs;
    for (size_t i = 0; i < k; ++i)
      inputs.push_back(reg.make_input(s.problem, n, 1000 + i));

    // Sequential-loop reference, one run per item under the derived seed.
    std::vector<int64_t> ref_scores;
    for (size_t i = 0; i < k; ++i) {
      auto res = registry::run(
          s.name, inputs[i],
          ctx_for(backend_kind::sequential, pp::derive_seed(base_seed, i)));
      ref_scores.push_back(pp::score_of(res.value));
    }

    for (auto b : parallel_backends) {
      for (unsigned w : widths) {
        auto batch =
            registry::run_batch(s.name, inputs, ctx_for(b, base_seed).with_workers(w));
        EXPECT_EQ(batch.workers, w) << s.name << "/" << pp::backend_name(b);
        EXPECT_EQ(batch.scores, ref_scores)
            << s.name << "/" << pp::backend_name(b) << " workers=" << w;
      }
    }
  }
}

TEST(Determinism, BatchSeedDerivationIsTheDocumentedRule) {
  // Re-running item i standalone under derive_seed(base, i) reproduces the
  // batch item exactly — full payload, not just the score.
  auto& reg = registry::instance();
  std::vector<pp::problem_input> inputs;
  for (uint64_t s : {51u, 52u, 53u}) inputs.push_back(reg.make_input("lis", 2'000, s));
  auto batch =
      registry::run_batch("lis/parallel", inputs, ctx_for(backend_kind::native, 19));
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto solo = registry::run("lis/parallel", inputs[i],
                              ctx_for(backend_kind::native, pp::derive_seed(19, i)));
    EXPECT_EQ(std::get<pp::lis_result>(batch.items[i].value).dp,
              std::get<pp::lis_result>(solo.value).dp)
        << i;
  }
}

TEST(Determinism, SameContextTwiceIsIdentical) {
  auto in = registry::instance().make_input("lis", 3'000, 41);
  for (auto b : kBackends) {
    auto a = registry::run("lis/parallel", in, ctx_for(b, 41));
    auto c = registry::run("lis/parallel", in, ctx_for(b, 41));
    EXPECT_EQ(std::get<pp::lis_result>(a.value).dp, std::get<pp::lis_result>(c.value).dp);
    EXPECT_EQ(a.stats.rounds, c.stats.rounds);
    EXPECT_EQ(a.stats.wakeup_attempts, c.stats.wakeup_attempts);
  }
}

TEST(Determinism, SeedChangesPivotChoicesNotAnswers) {
  auto in = registry::instance().make_input("lis", 3'000, 41);
  auto a = registry::run("lis/parallel", in,
                         ctx_for(backend_kind::native, 41)
                             .with_pivot(pp::pivot_policy::uniform_random));
  auto b = registry::run("lis/parallel", in,
                         ctx_for(backend_kind::native, 1234)
                             .with_pivot(pp::pivot_policy::uniform_random));
  // Different seeds may wake objects along different pivot chains, but the
  // DP answer is seed-independent.
  EXPECT_EQ(std::get<pp::lis_result>(a.value).dp, std::get<pp::lis_result>(b.value).dp);
}

}  // namespace
