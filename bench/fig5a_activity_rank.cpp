// Fig. 5(a): activity selection, fixed n, running time vs input rank.
//
// Paper setup: n = 1e9 activities, truncated-normal durations tuned to
// sweep the rank from ~1e2 to ~4e6 on 96 cores; Type 1 and Type 2 behave
// almost identically and beat the classic sequential DP up to rank ~4e6,
// while the sequential algorithm gets *faster* as rank grows (cache
// locality of its range queries).
//
// Here: n defaults to 2e6 (REPRO_SCALE to adjust); we sweep the mean
// activity duration to produce the rank series and report all four
// implementations.
#include <cstdio>
#include <vector>

#include "algos/activity.h"
#include "bench_common.h"

int main() {
  const pp::context ctx = bench::env_context();
  bench::banner("Activity selection: time vs rank (fixed n)", "Fig. 5(a), Sec. 6.1", ctx);
  size_t n = bench::scaled(2'000'000);
  constexpr int64_t t_range = 1'000'000'000;
  std::printf("n = %zu activities, time range [0, %lld)\n\n", n, (long long)t_range);
  std::printf("%12s %12s %10s %10s %10s %10s %8s %8s\n", "target_rank", "rank(rounds)",
              "seq(s)", "type1(s)", "type1f(s)", "type2(s)", "spd_t1", "spd_t2");
  for (double target : {1e2, 1e3, 1e4, 1e5, 1e6}) {
    double mean = static_cast<double>(t_range) / target;
    auto acts = pp::random_activities(n, t_range, mean, mean / 4, 1u << 30, 42);
    pp::activity_result t1, t1f, t2, seq;
    double ts = bench::time_s([&] { seq = pp::activity_select_seq(acts, ctx); });
    double tt1 = bench::time_s([&] { t1 = pp::activity_select_type1(acts, ctx); });
    double tt1f = bench::time_s([&] { t1f = pp::activity_select_type1_flat(acts, ctx); });
    double tt2 = bench::time_s([&] { t2 = pp::activity_select_type2(acts, ctx); });
    if (t1.best != seq.best || t2.best != seq.best || t1f.best != seq.best) {
      std::printf("MISMATCH!\n");
      return 1;
    }
    std::printf("%12.0f %12zu %10.3f %10.3f %10.3f %10.3f %8.2f %8.2f\n", target,
                t1.stats.rounds, ts, tt1, tt1f, tt2, ts / tt1, ts / tt2);
  }
  std::printf("\nShape check vs paper: parallel time grows with rank; Type1 ~ Type2;\n"
              "sequential time mildly improves with rank. The paper's crossover (parallel\n"
              "wins up to rank ~4e6) needs its 96 cores; on few workers the sequential\n"
              "DP stays ahead (the flat Type-1 variant is within ~2x of it).\n");
  return 0;
}
