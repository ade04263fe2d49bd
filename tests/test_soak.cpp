// Registry-driven soak smoke test (ROADMAP: fuzzing/soak harness): every
// registered solver that names a reference x every backend x 3 seeds,
// cross-checking score_of agreement with its solver_info::reference.
// The registry + input factories make this the ~50-line loop the ROADMAP
// describes; any mismatch prints the failing (solver, backend, seed, n)
// triple so a nightly run minimizes itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "checkers.h"
#include "core/registry.h"
#include "test_backends.h"

namespace {

using pp::registry;

TEST(Soak, EverySolverEveryBackendThreeSeeds) {
  auto& reg = registry::instance();
  const uint64_t seeds[] = {101, 202, 303};
  const size_t n = 600;
  size_t non_reference = 0;
  for (const auto& s : reg.solvers()) non_reference += !s.reference.empty();

  for (uint64_t seed : seeds) {
    size_t checked = 0;
    // One input per problem per seed, shared by the whole family sweep.
    std::map<std::string, pp::problem_input> inputs;
    // Reference scores, computed once per (reference solver, seed).
    std::map<std::string, int64_t> ref_scores;
    // Full reference payloads, kept for the structural branch below.
    std::map<std::string, pp::solver_value> ref_values;

    for (const auto& s : reg.solvers()) {
      if (s.reference.empty()) continue;  // a reference solver: nothing to check it against
      if (!inputs.count(s.problem)) inputs.emplace(s.problem, reg.make_input(s.problem, n, seed));
      const auto& input = inputs.at(s.problem);

      const std::string& ref = s.reference;
      if (!ref_scores.count(ref)) {
        auto res = registry::run(
            ref, input, pp::context{}.with_backend(pp::backend_kind::sequential).with_seed(seed));
        ref_scores.emplace(ref, pp::score_of(res.value));
        ref_values.emplace(ref, std::move(res.value));
      }

      const bool relaxed = s.paradigm == pp::solver_paradigm::relaxed;
      for (auto b : pp_test::kBackends) {
        auto res = registry::run(s.name, input, pp::context{}.with_backend(b).with_seed(seed));
        if (relaxed) {
          // Relaxed solvers promise structural validity (exact distances
          // for SSSP), not score equality with the reference schedule.
          std::string why;
          EXPECT_TRUE(
              pp_check::structurally_valid(s.name, input, res.value, ref_values.at(ref), &why))
              << "soak mismatch: " << why << " backend=" << pp::backend_name(b)
              << " seed=" << seed << " n=" << n;
          continue;
        }
        EXPECT_EQ(pp::score_of(res.value), ref_scores.at(ref))
            << "soak mismatch: solver=" << s.name << " backend=" << pp::backend_name(b)
            << " seed=" << seed << " n=" << n << " (reference " << ref << ")";
      }
      ++checked;
    }
    // No solver that names a reference slips through unchecked.
    EXPECT_EQ(checked, non_reference) << "seed=" << seed;
  }
}

}  // namespace
