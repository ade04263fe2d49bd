// Fig. 5(b): activity selection, fixed rank, running time vs input size.
//
// Paper setup: rank fixed at 45000, n from 1e8 to 2e9: the parallel
// algorithms grow almost linearly in n (bigger rounds = better
// parallelism), the sequential DP grows superlinearly (n log n).
//
// Here: rank target ~4500, n from 2.5e5 to 4e6 (scaled).
#include <cstdio>
#include <vector>

#include "algos/activity.h"
#include "bench_common.h"

int main() {
  const pp::context ctx = bench::env_context();
  bench::banner("Activity selection: time vs n (fixed rank)", "Fig. 5(b), Sec. 6.1", ctx);
  constexpr int64_t t_range = 1'000'000'000;
  constexpr double target_rank = 4500;
  double mean = static_cast<double>(t_range) / target_rank;
  std::printf("target rank ~%.0f\n\n", target_rank);
  std::printf("%10s %12s %10s %10s %10s %8s\n", "n", "rank(rounds)", "seq(s)", "type1(s)",
              "type2(s)", "spd_t1");
  for (size_t base : {250'000ull, 500'000ull, 1'000'000ull, 2'000'000ull, 4'000'000ull}) {
    size_t n = bench::scaled(base);
    auto acts = pp::random_activities(n, t_range, mean, mean / 4, 1u << 30, 7);
    pp::activity_result seq, t1, t2;
    double ts = bench::time_s([&] { seq = pp::activity_select_seq(acts, ctx); });
    double tt1 = bench::time_s([&] { t1 = pp::activity_select_type1(acts, ctx); });
    double tt2 = bench::time_s([&] { t2 = pp::activity_select_type2(acts, ctx); });
    if (t1.best != seq.best || t2.best != seq.best) {
      std::printf("MISMATCH!\n");
      return 1;
    }
    std::printf("%10zu %12zu %10.3f %10.3f %10.3f %8.2f\n", n, t1.stats.rounds, ts, tt1, tt2,
                ts / tt1);
  }
  std::printf("\nShape check vs paper: parallel time grows ~linearly with n,\n"
              "sequential grows superlinearly (n log n with cache effects).\n");
  return 0;
}
