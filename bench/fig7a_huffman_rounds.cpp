// Fig. 7(a): Huffman construction, fixed n, running time vs number of
// rounds (uniform and exponential frequency distributions).
//
// Paper setup: n = 1e9; rounds vary 33..58 by changing distribution
// parameters; running time is nearly flat in the round count because every
// round still has abundant parallelism.
#include <cstdio>

#include "algos/huffman.h"
#include "bench_common.h"

int main() {
  const pp::context ctx = bench::env_context();
  bench::banner("Huffman: time vs rounds (fixed n)", "Fig. 7(a), Sec. 6.2", ctx);
  size_t n = bench::scaled(2'000'000);
  std::printf("n = %zu symbols\n\n", n);
  std::printf("%-14s %14s %8s %8s %10s\n", "distribution", "param", "rounds", "height",
              "par(s)");
  for (uint64_t max_f : {1ull << 8, 1ull << 12, 1ull << 16, 1ull << 24, 1ull << 31}) {
    auto freqs = pp::uniform_freqs(n, max_f, 3);
    pp::huffman_result r;
    double t = bench::time_s([&] { r = pp::huffman_parallel(freqs, ctx); });
    std::printf("%-14s %14llu %8zu %8u %10.3f\n", "uniform", (unsigned long long)max_f,
                r.stats.rounds, r.height, t);
  }
  for (double lambda : {1e-2, 1e-4, 1e-6}) {
    auto freqs = pp::exponential_freqs(n, lambda, 1ull << 40, 5);
    pp::huffman_result r;
    double t = bench::time_s([&] { r = pp::huffman_parallel(freqs, ctx); });
    std::printf("%-14s %14g %8zu %8u %10.3f\n", "exponential", lambda, r.stats.rounds, r.height,
                t);
  }
  std::printf("\nShape check vs paper: round counts stay within a few dozen and the\n"
              "running time is nearly flat across them.\n");
  return 0;
}
