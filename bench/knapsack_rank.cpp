// Unlimited knapsack: time vs rank (= W / w*), sequential vs phase-
// parallel windows (Theorem 4.3). Smaller w* = more rounds = less
// parallelism per round.
#include <cstdio>

#include "algos/knapsack.h"
#include "bench_common.h"

int main() {
  const pp::context ctx = bench::env_context();
  bench::banner("Unlimited knapsack: time vs rank (= W/w*)", "Sec. 4.2, Theorem 4.3", ctx);
  int64_t W = static_cast<int64_t>(bench::scaled(2'000'000));
  constexpr size_t n_items = 64;
  std::printf("W = %lld, %zu items\n\n", (long long)W, n_items);
  std::printf("%10s %10s %10s %10s %8s\n", "w*", "rank", "seq(s)", "par(s)", "spdup");
  for (int64_t wstar : {100'000ll, 10'000ll, 1'000ll, 100ll}) {
    auto items = pp::random_items(n_items, wstar, wstar * 4, 1'000'000, 7);
    pp::knapsack_result seq, par;
    double ts = bench::time_s([&] { seq = pp::knapsack_seq(W, items, ctx); });
    double tp = bench::time_s([&] { par = pp::knapsack_parallel(W, items, ctx); });
    if (seq.dp != par.dp) {
      std::printf("MISMATCH!\n");
      return 1;
    }
    std::printf("%10lld %10zu %10.3f %10.3f %8.2f\n", (long long)wstar, par.stats.rounds, ts,
                tp, ts / tp);
  }
  std::printf("\nShape check: speedup shrinks as rank grows (windows get narrower).\n");
  return 0;
}
