// Registry-driven soak smoke test (ROADMAP: fuzzing/soak harness): every
// registered solver x every backend x 3 seeds, cross-checking score_of
// agreement between the family's sequential reference and each variant.
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

// Sequential reference of a solver family ("lis/parallel" -> family "lis").
// Every family names its reference "<family>/sequential" except sssp,
// whose sequential baseline is Dijkstra.
std::string reference_of(const std::string& solver_name) {
  std::string family = solver_name.substr(0, solver_name.find('/'));
  std::string ref = family + "/sequential";
  if (!registry::instance().contains(ref) && family == "sssp") ref = "sssp/dijkstra";
  return ref;
}

TEST(Soak, EverySolverEveryBackendThreeSeeds) {
  auto& reg = registry::instance();
  const uint64_t seeds[] = {101, 202, 303};
  const size_t n = 600;

  for (uint64_t seed : seeds) {
    // One input per problem per seed, shared by the whole family sweep.
    std::map<std::string, pp::problem_input> inputs;
    // Reference scores, computed once per (reference solver, seed).
    std::map<std::string, int64_t> ref_scores;
    // Full reference payloads, kept for the structural branch below.
    std::map<std::string, pp::solver_value> ref_values;

    for (const auto& s : reg.solvers()) {
      if (!inputs.count(s.problem)) inputs.emplace(s.problem, reg.make_input(s.problem, n, seed));
      const auto& input = inputs.at(s.problem);

      std::string ref = reference_of(s.name);
      ASSERT_TRUE(reg.contains(ref)) << "no sequential reference for " << s.name;
      if (!ref_scores.count(ref)) {
        auto res = registry::run(
            ref, input, pp::context{}.with_backend(pp::backend_kind::sequential).with_seed(seed));
        ref_scores.emplace(ref, pp::score_of(res.value));
        ref_values.emplace(ref, std::move(res.value));
      }

      const bool relaxed = pp::paradigm_of(s) == pp::solver_paradigm::relaxed;
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
    }
  }
}

}  // namespace
