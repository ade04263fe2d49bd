// serving_batch: per-item dispatch overhead of registry::run_batch vs a
// loop of registry::run, across batch sizes {1, 16, 256} x backends.
//
// The batched pipeline exists to amortize dispatch setup — scheduler pool
// lease, worker wake-up — across many inputs of one problem (the
// serving-traffic shape of the ROADMAP north star). This
// bench quantifies it: both variants run the identical K inputs under the
// identical derived per-item seeds, so they do identical solver work and
// any gap is pure dispatch overhead. On the native backend it also counts
// pool leases (pool_cache::acquires): K for the loop, 1 for the batch.
//
// Overhead is measured drift-immune: every run_result's `seconds` clock
// starts after the scheduler is bound (core/result.h), so
//   overhead = (variant wall clock - sum of per-item solve seconds) / K
// subtracts the solve time observed in the SAME pass. Background load on
// a shared machine inflates both terms together and cancels, where raw
// wall-clock comparisons drown the lease cost in noise.
//
// Expected shape: batch overhead strictly below loop overhead from
// K >= 16 on the native backend (the loop pays K-1 extra lease cycles),
// with the gap widening as solve time shrinks relative to lease cost.
//
// Env: REPRO_SCALE scales n (default 100 per item — small on purpose:
// serving traffic is many small requests), REPRO_REPEATS repeats the
// timed section (min reported, default 5, more for small K), PP_SEED the
// base seed.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/registry.h"
#include "parallel/scheduler.h"

namespace {

constexpr const char* kSolver = "lis/parallel";
constexpr const char* kProblem = "lis";

struct pass_result {
  double wall = 0;       // whole-variant wall clock, this pass
  double solve = 0;      // sum of per-item envelope seconds, this pass
  int64_t score_sum = 0; // fold of per-item scores (agreement check)
};

struct variant_time {
  double overhead = 1e100;  // min over repeats of (wall - solve)
  double wall = 1e100;      // min over repeats of wall
  int64_t score_sum = 0;
  uint64_t leases = 0;  // native pool leases in the last pass
};

pass_result pass_loop(const std::vector<pp::problem_input>& inputs, const pp::context& ctx) {
  pass_result out;
  auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto res =
        pp::registry::run(kSolver, inputs[i], ctx.with_seed(pp::derive_seed(ctx.seed, i)));
    out.solve += res.seconds;
    out.score_sum += pp::score_of(res.value);
  }
  auto t1 = std::chrono::steady_clock::now();
  out.wall = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

pass_result pass_batch(const std::vector<pp::problem_input>& inputs, const pp::context& ctx) {
  pass_result out;
  auto t0 = std::chrono::steady_clock::now();
  auto batch = pp::registry::run_batch(kSolver, inputs, ctx);
  auto t1 = std::chrono::steady_clock::now();
  out.wall = std::chrono::duration<double>(t1 - t0).count();
  out.solve = batch.total_seconds;
  for (int64_t s : batch.scores) out.score_sum += s;
  return out;
}

// Fold one pass into the variant's running minima.
void fold(const pass_result& p, uint64_t leases, variant_time& out) {
  out.overhead = std::min(out.overhead, p.wall - p.solve);
  out.wall = std::min(out.wall, p.wall);
  out.score_sum = p.score_sum;
  out.leases = leases;
}

}  // namespace

int main() {
  pp::context base = bench::env_context();
  bench::banner("serving_batch: run_batch vs loop-of-run dispatch overhead",
                "ROADMAP: batched serving pipeline (amortized scheduler acquisition)", base);

  const size_t n = bench::scaled(100);
  // Small batches run for microseconds; give them proportionally more
  // repeats so the min is a stable estimate, not one lucky scheduling.
  auto reps_for = [](size_t K) {
    return std::max({5, bench::repeats(), static_cast<int>(512 / K)});
  };
  const size_t batch_sizes[] = {1, 16, 256};
  const pp::backend_kind backends[] = {pp::backend_kind::sequential, pp::backend_kind::native};

  std::printf("%s on %s inputs, n = %zu per item, min over >=%d interleaved repeats\n"
              "overhead us/item = (variant wall clock - sum of per-item solve seconds) / K\n\n",
              kSolver, kProblem, n, reps_for(256));
  std::printf("%-10s %6s %16s %16s %9s %13s %6s\n", "backend", "K", "loop ovh us/item",
              "batch ovh us/item", "speedup", "leases l/b", "agree");

  auto& reg = pp::registry::instance();
  for (auto b : backends) {
    pp::context ctx = base.with_backend(b);
    for (size_t K : batch_sizes) {
      std::vector<pp::problem_input> inputs;
      inputs.reserve(K);
      for (size_t i = 0; i < K; ++i)
        inputs.push_back(reg.make_input(kProblem, n, pp::derive_seed(ctx.seed, i)));

      auto& cache = pp::detail::pool_cache::instance();
      variant_time loop, batch;
      const int reps = reps_for(K);
      // Interleave the two variants so slow drift hits both sides equally.
      for (int r = 0; r < reps; ++r) {
        uint64_t l0 = cache.acquires();
        auto pl = pass_loop(inputs, ctx);
        uint64_t l1 = cache.acquires();
        auto pb = pass_batch(inputs, ctx);
        uint64_t l2 = cache.acquires();
        fold(pl, l1 - l0, loop);
        fold(pb, l2 - l1, batch);
      }
      double lus = loop.overhead / static_cast<double>(K) * 1e6;
      double bus = batch.overhead / static_cast<double>(K) * 1e6;
      char leases[32];
      std::snprintf(leases, sizeof(leases), "%llu/%llu",
                    static_cast<unsigned long long>(loop.leases),
                    static_cast<unsigned long long>(batch.leases));
      char speedup[16];
      // The subtraction can cancel to ~0 on a fast machine; don't print inf.
      if (bus > 0)
        std::snprintf(speedup, sizeof(speedup), "%8.2fx", lus / bus);
      else
        std::snprintf(speedup, sizeof(speedup), "%9s", "-");
      std::printf("%-10s %6zu %16.1f %16.1f %s %13s %6s\n",
                  std::string(pp::backend_name(b)).c_str(), K, lus, bus, speedup, leases,
                  loop.score_sum == batch.score_sum ? "yes" : "NO");
    }
  }
  std::printf("\nleases l/b = native pool leases granted per variant pass (the loop\n"
              "pays one per item, the batch one total). Solver work is identical on\n"
              "both sides; overhead isolates dispatch setup only.\n");
  return 0;
}
