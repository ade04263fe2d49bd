// Fig. 10: the LIS input data patterns. Emits CSV samples of the segment
// and line patterns (the four panels of the figure) so they can be
// plotted, plus their measured LIS sizes.
#include <cstdio>

#include "algos/lis.h"
#include "bench_common.h"

namespace {

void emit(const char* name, const std::vector<int64_t>& a, size_t points,
          const pp::context& ctx) {
  auto len = pp::lis_sequential(a, ctx).length;
  std::printf("\n# pattern=%s n=%zu lis=%lld (sampled to %zu points)\n", name, a.size(),
              (long long)len, points);
  std::printf("i,a_i\n");
  size_t stride = std::max<size_t>(1, a.size() / points);
  for (size_t i = 0; i < a.size(); i += stride)
    std::printf("%zu,%lld\n", i, (long long)a[i]);
}

}  // namespace

int main() {
  const pp::context ctx = bench::env_context();
  bench::banner("LIS input patterns (CSV samples)", "Fig. 10, Sec. 6.4", ctx);
  size_t n = bench::scaled(100'000);
  emit("segment-k10", pp::lis_segment_pattern(n, 10, 1), 40, ctx);
  emit("segment-k300", pp::lis_segment_pattern(n, 300, 2), 40, ctx);
  emit("line-shallow", pp::lis_line_pattern(n, 10, 4'000'000, 3), 40, ctx);
  emit("line-steep", pp::lis_line_pattern(n, 40, 4'000'000, 4), 40, ctx);
  return 0;
}
