// Fig. 7(b): Huffman construction, time vs input size for three input
// distributions, parallel vs the sequential two-queue algorithm.
//
// Paper setup: n = 1e5..1e9, max frequency 1000; on large inputs the
// parallel version wins 10-20x (96 cores). At 2 cores the win is bounded
// by the core count; the shape (parallel scales linearly, gap grows with
// n) is what we check.
#include <cstdio>

#include "algos/huffman.h"
#include "bench_common.h"

int main() {
  const pp::context ctx = bench::env_context();
  bench::banner("Huffman: time vs input size, 3 distributions", "Fig. 7(b), Sec. 6.2", ctx);
  std::printf("%10s %-13s %10s %10s %8s %8s\n", "n", "distribution", "seq(s)", "par(s)",
              "spdup", "rounds");
  for (size_t base : {100'000ull, 400'000ull, 1'600'000ull, 6'400'000ull}) {
    size_t n = bench::scaled(base);
    struct Gen {
      const char* name;
      std::vector<uint64_t> freqs;
    } gens[] = {
        {"uniform", pp::uniform_freqs(n, 1000, 1)},
        {"exponential", pp::exponential_freqs(n, 1e-2, 1000, 2)},
        {"zipf", pp::zipf_freqs(n, 1.0, 1u << 20, 3)},
    };
    for (auto& g : gens) {
      pp::huffman_result s, p;
      double ts = bench::time_s([&] { s = pp::huffman_seq(g.freqs, ctx); });
      double tp = bench::time_s([&] { p = pp::huffman_parallel(g.freqs, ctx); });
      if (s.wpl != p.wpl) {
        std::printf("WPL MISMATCH!\n");
        return 1;
      }
      std::printf("%10zu %-13s %10.3f %10.3f %8.2f %8zu\n", n, g.name, ts, tp, ts / tp,
                  p.stats.rounds);
    }
  }
  std::printf("\nShape check vs paper: similar times across distributions; parallel\n"
              "advantage grows with n (bounded by the 2 cores of this machine).\n");
  return 0;
}
