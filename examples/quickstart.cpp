// Quickstart: the phase-parallel library in five minutes.
//
// The library has one configuration surface (pp::context) and one dispatch
// surface (pp::registry). A context carries the backend, worker count,
// seed, and policy knobs; the registry runs any solver by name on a typed
// problem input and returns a uniform run_result envelope (payload +
// phase statistics + wall time + the context facts).
//
// Shown here:
//   * building a context and running solvers through the registry,
//   * a Type-2 algorithm (LIS: pivot wake-ups on the 2D range tree),
//   * a Type-1 algorithm (activity selection: range-query frontiers),
//   * a TAS-tree algorithm (greedy MIS: asynchronous wake-ups),
//   * calling a solver directly with a context (no registry),
// plus the runtime statistics (rounds == rank, wake-up counts) that make
// the paper's round-efficiency claims observable.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "core/registry.h"
#include "graph/generators.h"
#include "parallel/random.h"

int main() {
  // One context for the whole program: native work-stealing backend,
  // seed 1. Everything below is reproducible from this line.
  pp::context ctx = pp::context{}.with_backend(pp::backend_kind::native).with_seed(1);
  std::printf("phase-parallel quickstart (%u workers, %s backend)\n\n", pp::num_workers(ctx),
              std::string(pp::backend_name(ctx.backend)).c_str());

  // --- LIS (Type 2) through the registry ------------------------------------
  pp::sequence_input lis_in;
  lis_in.a = {6, 8, 4, 7, 3, 9, 1, 5, 2};  // Fig. 1 of the paper
  auto lis = pp::registry::run("lis/parallel", pp::problem_input(lis_in), ctx);
  const auto& lis_val = std::get<pp::lis_result>(lis.value);
  std::printf("LIS of {6 8 4 7 3 9 1 5 2}: length %lld, %zu rounds, %.2f wake-ups/object\n",
              (long long)lis_val.length, lis.stats.rounds, lis.stats.avg_wakeups());
  auto sub = pp::lis_reconstruct(lis_in.a, lis_val.dp);
  std::printf("  one optimal subsequence:");
  for (auto i : sub) std::printf(" %lld", (long long)lis_in.a[i]);
  std::printf("\n  envelope: solver=%s backend=%s time=%.4fs\n\n", lis.solver.c_str(),
              std::string(pp::backend_name(lis.backend)).c_str(), lis.seconds);

  // --- Activity selection (Type 1) on a generated default input -------------
  auto act_in = pp::registry::instance().make_input("activity", 100'000, ctx.seed);
  auto sel = pp::registry::run("activity/type1", act_in, ctx);
  std::printf("activity selection on 100000 activities: best weight %lld\n",
              (long long)pp::score_of(sel.value));
  std::printf("  rank(S) = %zu rounds, largest frontier %zu\n\n", sel.stats.rounds,
              sel.stats.max_frontier);

  // --- Greedy MIS (TAS trees): asynchronous wake-ups -------------------------
  pp::graph_input mis_in;
  mis_in.g = pp::rmat_graph(1 << 14, 1 << 17, 7);
  mis_in.vertex_priority = pp::random_permutation(mis_in.g.num_vertices(), 13);
  pp::problem_input mis_pin(std::move(mis_in));
  auto mis = pp::registry::run("mis/tas", mis_pin, ctx);
  auto mis_seq = pp::registry::run("mis/sequential", mis_pin, ctx);
  const auto& g = std::get<pp::graph_input>(mis_pin).g;
  std::printf("greedy MIS on rmat(n=%u, m=%zu): |MIS| = %lld, wake-chain depth %zu\n",
              g.num_vertices(), g.num_edges(), (long long)pp::score_of(mis.value),
              mis.stats.substeps);
  std::printf("  same set as sequential greedy: %s\n\n",
              std::get<pp::mis_result>(mis.value).in_mis ==
                      std::get<pp::mis_result>(mis_seq.value).in_mis
                  ? "yes"
                  : "NO (bug!)");

  // --- Direct call with a context (no registry) ------------------------------
  // Solvers also take a context directly; the registry is sugar over this.
  auto moles = pp::random_moles(50'000, 1'000'000, 20'000, 3);
  auto whac = pp::whac_parallel(moles, ctx.with_pivot(pp::pivot_policy::rightmost));
  std::printf("whac-a-mole with %zu moles: best plan hits %lld (in %zu rounds)\n", moles.size(),
              (long long)whac.best, whac.stats.rounds);

  // --- The same run on another backend is one .with_backend away -------------
  auto whac_in = pp::whac_input{pp::random_moles(5'000, 1'000'000, 20'000, 3)};
  auto small_native = pp::registry::run("whac/parallel", pp::problem_input(whac_in), ctx);
  auto seq = pp::registry::run("whac/parallel", pp::problem_input(whac_in),
                               ctx.with_backend(pp::backend_kind::sequential));
  std::printf("  sequential backend agrees: %s (%.4fs)\n",
              pp::score_of(seq.value) == pp::score_of(small_native.value) ? "yes" : "NO (bug!)",
              seq.seconds);
  return 0;
}
