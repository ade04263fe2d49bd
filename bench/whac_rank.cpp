// Whac-A-Mole (Appendix B): time and wake-ups vs rank, sequential vs the
// phase-parallel dominance engine. The board width (position range)
// relative to the time range controls how many moles chain together.
#include <cstdio>

#include "algos/whac.h"
#include "bench_common.h"

int main() {
  const pp::context ctx = bench::env_context();
  bench::banner("Whac-A-Mole: time vs rank", "Appendix B", ctx);
  size_t n = bench::scaled(300'000);
  constexpr int64_t t_range = 100'000'000;
  std::printf("n = %zu moles, time range [0, %lld)\n\n", n, (long long)t_range);
  std::printf("%12s %8s | %10s %10s | %10s %8s\n", "p_range", "rank", "seq(s)", "par(s)",
              "avg-wakeup", "rounds");
  for (int64_t p_range : {100'000'000ll, 10'000'000ll, 1'000'000ll, 100'000ll}) {
    auto moles = pp::random_moles(n, t_range, p_range, 5);
    pp::whac_result seq, par;
    double ts = bench::time_s([&] { seq = pp::whac_sequential(moles, ctx); });
    double tp = bench::time_s([&] {
      par = pp::whac_parallel(moles, ctx.with_pivot(pp::pivot_policy::rightmost).with_seed(1));
    });
    if (seq.dp != par.dp) {
      std::printf("MISMATCH!\n");
      return 1;
    }
    std::printf("%12lld %8lld | %10.3f %10.3f | %10.2f %8zu\n", (long long)p_range,
                (long long)par.best, ts, tp, par.stats.avg_wakeups(), par.stats.rounds);
  }
  std::printf("\nShape check: narrower boards => deeper chains => more rounds and a\n"
              "slower parallel run, exactly like LIS with larger output sizes.\n");
  return 0;
}
