// Ablation: uniformly-random pivots (Algorithm 3 as analyzed) vs the
// rightmost-unfinished heuristic (what the paper's implementation uses,
// Sec. 6.4). The heuristic cuts wake-up attempts — especially on the
// segment pattern, where the rightmost unfinished point is almost always
// the last blocker.
#include <cstdio>

#include "algos/lis.h"
#include "bench_common.h"

int main() {
  const pp::context ctx = bench::env_context();
  bench::banner("Ablation: LIS pivot policy (random vs rightmost)", "Sec. 6.4 heuristic", ctx);
  size_t n = bench::scaled(300'000);
  std::printf("%-10s %8s | %12s %12s | %12s %12s\n", "pattern", "output", "rand-wakeup",
              "right-wakeup", "rand(s)", "right(s)");
  struct Case {
    const char* name;
    std::vector<int64_t> a;
  } cases[] = {
      {"segment", pp::lis_segment_pattern(n, 100, 3)},
      {"segment", pp::lis_segment_pattern(n, 1000, 4)},
      {"line", pp::lis_line_pattern(n, 8, 4'000'000, 5)},
      {"line", pp::lis_line_pattern(n, 40, 4'000'000, 6)},
  };
  for (auto& c : cases) {
    pp::lis_result rnd, rgt;
    const pp::context run_ctx = ctx.with_seed(9);
    double trnd = bench::time_s([&] {
      rnd = pp::lis_parallel(c.a, run_ctx.with_pivot(pp::pivot_policy::uniform_random));
    });
    double trgt = bench::time_s([&] {
      rgt = pp::lis_parallel(c.a, run_ctx.with_pivot(pp::pivot_policy::rightmost));
    });
    if (rnd.length != rgt.length) {
      std::printf("MISMATCH!\n");
      return 1;
    }
    std::printf("%-10s %8lld | %12.2f %12.2f | %12.3f %12.3f\n", c.name, (long long)rgt.length,
                rnd.stats.avg_wakeups(), rgt.stats.avg_wakeups(), trnd, trgt);
  }
  std::printf("\nShape check: the rightmost heuristic needs fewer wake-ups than uniform\n"
              "random pivots (paper reports <= 8.4 avg on line, <= 3.9 on segment).\n");
  return 0;
}
