// Tests for cooperative cancellation (core/cancel.h): token semantics,
// phase-granular unwinding through every instrumented round loop,
// run_status::cancelled envelopes from the registry, per-item tokens in
// run_batch, and the guarantee that token-free runs are bit-for-bit
// unchanged (the determinism suite's contract).
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.h"
#include "core/registry.h"

namespace {

using namespace std::chrono_literals;
using pp::cancel_token;
using pp::registry;
using pp::run_status;

pp::context native2() {
  return pp::context{}.with_backend(pp::backend_kind::native).with_workers(2);
}

TEST(Cancel, TokenBasics) {
  cancel_token null_tok;
  EXPECT_FALSE(null_tok.valid());
  EXPECT_FALSE(null_tok.cancelled());
  null_tok.cancel();  // no-op, not a crash
  EXPECT_FALSE(null_tok.cancelled());
  EXPECT_FALSE(null_tok.deadline().has_value());

  cancel_token manual = cancel_token::manual();
  EXPECT_TRUE(manual.valid());
  EXPECT_FALSE(manual.cancelled());
  cancel_token copy = manual;  // shared state: cancelling one cancels both
  manual.cancel();
  EXPECT_TRUE(manual.cancelled());
  EXPECT_TRUE(copy.cancelled());
  EXPECT_THROW(copy.check(), pp::cancelled_error);

  cancel_token dl = cancel_token::after(5ms);
  EXPECT_TRUE(dl.valid());
  EXPECT_TRUE(dl.deadline().has_value());
  std::this_thread::sleep_for(20ms);
  EXPECT_TRUE(dl.cancelled());  // deadline passed (and latched)
  EXPECT_TRUE(dl.cancelled());

  cancel_token far = cancel_token::after(1h);
  EXPECT_FALSE(far.cancelled());
  EXPECT_NO_THROW(far.check());
}

TEST(Cancel, PreCancelledTokenUnwindsEveryInstrumentedSolver) {
  // A token that has already fired stops each phase loop at its first
  // cancel_point: the run returns a cancelled envelope after round 0.
  const std::vector<std::pair<std::string, std::string>> solvers = {
      {"lis/parallel", "lis"},
      {"whac/parallel", "whac"},
      {"activity/type1", "activity"},
      {"activity/type2", "activity"},
      {"activity_unweighted/parallel", "activity"},
      {"mis/rounds", "graph"},
      {"matching/rounds", "graph"},
      {"sssp/bellman_ford", "sssp"},
      {"sssp/delta_stepping", "sssp"},
      {"sssp/phase_parallel", "sssp"},
      {"sssp/crauser", "sssp"},
      {"huffman/parallel", "huffman"},
      {"knapsack/parallel", "knapsack"},
      {"list_ranking/parallel", "list"},
      {"shuffle/parallel", "shuffle"},
  };
  auto& reg = registry::instance();
  for (const auto& [name, problem] : solvers) {
    ASSERT_NE(reg.info(name), nullptr) << name;
    auto in = reg.make_input(problem, 2'000, 7);
    cancel_token tok = cancel_token::manual();
    tok.cancel();
    auto res = registry::run(name, in, native2().with_seed(3).with_cancel(tok));
    EXPECT_EQ(res.status, run_status::cancelled) << name;
    EXPECT_TRUE(res.cancelled()) << name;
  }
}

TEST(Cancel, DeadlineCancelsMidRunFasterThanFullSolve) {
  auto in = registry::instance().make_input("lis", 30'000, 11);
  pp::context ctx = native2().with_seed(5);

  // Reference: the full solve, no token.
  auto full = registry::run("lis/parallel", in, ctx);
  ASSERT_EQ(full.status, run_status::ok);
  ASSERT_GT(full.seconds, 0.05) << "input too small to observe a mid-run cancel";

  auto t0 = std::chrono::steady_clock::now();
  auto res = registry::run("lis/parallel", in, ctx.with_cancel(cancel_token::after(20ms)));
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(res.status, run_status::cancelled);
  // The run unwound at a phase boundary instead of burning the full solve.
  EXPECT_LT(elapsed, 0.5 * full.seconds)
      << "cancelled run took " << elapsed << "s vs full solve " << full.seconds << "s";
  EXPECT_LT(res.seconds, 0.5 * full.seconds);
}

TEST(Cancel, ManualCancelFromAnotherThread) {
  auto in = registry::instance().make_input("lis", 30'000, 13);
  pp::context ctx = native2().with_seed(5);
  auto full = registry::run("lis/parallel", in, ctx);
  ASSERT_GT(full.seconds, 0.05);

  cancel_token tok = cancel_token::manual();
  std::thread killer([&] {
    std::this_thread::sleep_for(20ms);
    tok.cancel();
  });
  auto res = registry::run("lis/parallel", in, ctx.with_cancel(tok));
  killer.join();
  EXPECT_EQ(res.status, run_status::cancelled);
  EXPECT_LT(res.seconds, 0.5 * full.seconds);
}

TEST(Cancel, TokenFreeRunsBitForBitUnchanged) {
  // The determinism contract: adding a token that never fires (or none)
  // changes nothing about what a run computes.
  auto& reg = registry::instance();
  for (const char* name : {"lis/parallel", "sssp/phase_parallel", "huffman/parallel"}) {
    auto in = reg.make_input(reg.info(name)->problem, 3'000, 17);
    pp::context ctx = native2().with_seed(23);
    auto plain = registry::run(name, in, ctx);
    auto tokened = registry::run(name, in, ctx.with_cancel(cancel_token::after(1h)));
    ASSERT_EQ(plain.status, run_status::ok) << name;
    ASSERT_EQ(tokened.status, run_status::ok) << name;
    EXPECT_EQ(pp::score_of(plain.value), pp::score_of(tokened.value)) << name;
    EXPECT_EQ(plain.stats.rounds, tokened.stats.rounds) << name;
    EXPECT_EQ(plain.stats.processed, tokened.stats.processed) << name;
  }
}

TEST(Cancel, BatchSkipsPreCancelledItemsRunsTheRest) {
  auto& reg = registry::instance();
  auto in = reg.make_input("lis", 1'000, 3);
  pp::context ctx = native2().with_seed(41);

  pp::batch_options opts;
  opts.seeds = {100, 101, 102};
  cancel_token dead = cancel_token::manual();
  dead.cancel();
  opts.tokens = {cancel_token{}, dead, cancel_token::after(1h)};

  std::vector<pp::problem_input> inputs = {in, in, in};
  auto br = registry::run_batch("lis/parallel", std::span<const pp::problem_input>(inputs),
                                ctx, opts);
  ASSERT_EQ(br.count(), 3u);
  EXPECT_EQ(br.items[0].status, run_status::ok);
  EXPECT_EQ(br.items[1].status, run_status::cancelled);
  EXPECT_EQ(br.items[1].seconds, 0.0) << "skipped item must not have run";
  EXPECT_EQ(br.items[2].status, run_status::ok);
  // Survivors match standalone runs under their seeds exactly.
  for (size_t i : {size_t{0}, size_t{2}}) {
    auto solo = registry::run("lis/parallel", in, ctx.with_seed(100 + i));
    EXPECT_EQ(br.scores[i], pp::score_of(solo.value)) << i;
  }
  EXPECT_EQ(br.scores[1], 0);
  // Timing aggregates cover completed items only: the skipped item's 0.0
  // seconds must not deflate min/mean/percentiles.
  EXPECT_GT(br.min_seconds, 0.0);
  EXPECT_DOUBLE_EQ(br.total_seconds, br.items[0].seconds + br.items[2].seconds);

  // Token-count mismatch is rejected like a seed-count mismatch.
  pp::batch_options bad;
  bad.tokens = {cancel_token{}};
  EXPECT_THROW(registry::run_batch("lis/parallel", std::span<const pp::problem_input>(inputs),
                                   ctx, bad),
               std::invalid_argument);
}

TEST(Cancel, CancelledEnvelopeSerializesStatus) {
  auto in = registry::instance().make_input("lis", 2'000, 3);
  cancel_token tok = cancel_token::manual();
  tok.cancel();
  auto res = registry::run("lis/parallel", in, native2().with_cancel(tok));
  std::string js = pp::to_json(res);
  EXPECT_NE(js.find("\"status\": \"cancelled\""), std::string::npos) << js;
  auto ok = registry::run("lis/parallel", in, native2());
  EXPECT_NE(pp::to_json(ok).find("\"status\": \"ok\""), std::string::npos);
}

}  // namespace
