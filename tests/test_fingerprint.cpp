// Tests for canonical input fingerprints (core/fingerprint.h + the
// per-problem canonicalizers in core/registry.cpp).
//
// The contract under test is the stability contract: identical logical
// inputs — regardless of construction path — produce identical canonical
// bytes and identical fingerprints, and distinct logical inputs (different
// content, or the same words under a different variant alternative) do
// not. The committed golden table (golden_results.inc, regenerated with
// `ppdriver golden`) then locks the concrete digest values and sequential
// scores across commits and platforms: a row changing means either the
// canonical serialization changed (bump kFingerprintVersion) or a solver's
// answer drifted.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/fingerprint.h"
#include "core/registry.h"
#include "graph/csr.h"

namespace {

using pp::fingerprint;
using pp::fingerprint_of;
using pp::problem_input;
using pp::registry;

pp::context seq_ctx(uint64_t seed) {
  return pp::context{}.with_backend(pp::backend_kind::sequential).with_seed(seed);
}

TEST(Fingerprint, HexIs32LowercaseChars) {
  auto fp = fingerprint_of(problem_input{pp::sequence_input{{1, 2, 3}, {}}});
  std::string hex = fp.hex();
  ASSERT_EQ(hex.size(), 32u);
  for (char c : hex) EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) &&
                                 !std::isupper(static_cast<unsigned char>(c)))
      << hex;
}

TEST(Fingerprint, CopiesAndFactoryRebuildsAgree) {
  // The factory path is deterministic in (problem, n, seed): rebuilding
  // the same input must re-produce the same fingerprint, and a copy is
  // trivially the same logical input.
  for (const auto& p : registry::instance().problems()) {
    auto a = registry::instance().make_input(p.name, 300, 7);
    auto b = registry::instance().make_input(p.name, 300, 7);
    problem_input c = a;
    EXPECT_EQ(fingerprint_of(a), fingerprint_of(b)) << p.name;
    EXPECT_EQ(fingerprint_of(a), fingerprint_of(c)) << p.name;
    // ... and a different seed or size is a different logical input.
    EXPECT_NE(fingerprint_of(a), fingerprint_of(registry::instance().make_input(p.name, 300, 8)))
        << p.name;
    EXPECT_NE(fingerprint_of(a), fingerprint_of(registry::instance().make_input(p.name, 301, 7)))
        << p.name;
  }
}

TEST(Fingerprint, UnitWeightsCanonicalizeToEmptyForSequenceInput) {
  // Both LIS implementations compute `weights.empty() ? 1 : weights[i]`,
  // so an explicit all-ones vector IS the unit-weight input: same
  // fingerprint, and — the ground truth behind the normalization — the
  // same answer from the solver.
  pp::sequence_input implicit{{5, 1, 4, 2, 3, 9, 8}, {}};
  pp::sequence_input explicit_ones = implicit;
  explicit_ones.weights.assign(implicit.a.size(), 1);
  problem_input a{implicit}, b{explicit_ones};
  EXPECT_EQ(fingerprint_of(a), fingerprint_of(b));
  auto ra = registry::run("lis/parallel", a, seq_ctx(3));
  auto rb = registry::run("lis/parallel", b, seq_ctx(3));
  EXPECT_EQ(pp::score_of(ra.value), pp::score_of(rb.value));
  EXPECT_EQ(pp::summary_of(ra.value), pp::summary_of(rb.value));

  // Non-unit weights stay distinct from the unit spelling.
  pp::sequence_input weighted = implicit;
  weighted.weights.assign(implicit.a.size(), 2);
  EXPECT_NE(fingerprint_of(a), fingerprint_of(problem_input{weighted}));
}

TEST(Fingerprint, ListInputWeightsAreNotNormalized) {
  // For list ranking, empty weights select the unweighted solvers and
  // explicit weights the weighted ones — different payload types, so an
  // all-ones vector is a logically different input and must NOT collapse
  // onto the empty spelling.
  pp::list_input unweighted{{1, 2, 0}, {}};
  pp::list_input ones = unweighted;
  ones.weights.assign(unweighted.next.size(), 1);
  EXPECT_NE(fingerprint_of(problem_input{unweighted}), fingerprint_of(problem_input{ones}));
}

TEST(Fingerprint, GraphFingerprintIndependentOfEdgeListOrder) {
  // CSR construction sorts + dedups adjacency, so any permutation (or
  // duplication) of the edge list builds the same logical graph — and the
  // canonical bytes walk the CSR, not the edge list.
  std::vector<pp::edge> edges{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}};
  std::vector<pp::edge> shuffled{{1, 3}, {0, 3}, {2, 3}, {0, 1}, {1, 2}, {0, 1}};
  pp::graph_input a{pp::graph::from_edges(4, edges), {0, 1, 2, 3}, {0, 1, 2, 3, 4}};
  pp::graph_input b{pp::graph::from_edges(4, shuffled), {0, 1, 2, 3}, {0, 1, 2, 3, 4}};
  EXPECT_EQ(fingerprint_of(problem_input{a}), fingerprint_of(problem_input{b}));

  // The priorities are part of the logical input (they pick the canonical
  // sequential order the paper's algorithms must agree with).
  pp::graph_input c = a;
  c.vertex_priority = {3, 2, 1, 0};
  EXPECT_NE(fingerprint_of(problem_input{a}), fingerprint_of(problem_input{c}));
}

TEST(Fingerprint, AlternativesAreDomainSeparated) {
  // Same canonical words under different variant alternatives must digest
  // differently (the stream starts with the variant tag): an empty input
  // of every problem is still nine distinct logical inputs.
  std::set<std::string> hexes;
  std::vector<problem_input> empties{
      pp::sequence_input{}, pp::activity_input{}, pp::graph_input{},  pp::sssp_input{},
      pp::huffman_input{},  pp::knapsack_input{}, pp::list_input{},   pp::shuffle_input{},
      pp::whac_input{}};
  for (const auto& in : empties) hexes.insert(fingerprint_of(in).hex());
  EXPECT_EQ(hexes.size(), empties.size());
}

TEST(Fingerprint, RunEnvelopeCarriesInputFingerprint) {
  auto input = registry::instance().make_input("lis", 500, 11);
  auto res = registry::run("lis/sequential", input, seq_ctx(11));
  EXPECT_EQ(res.input_fp, fingerprint_of(input));
  EXPECT_NE(res.input_fp, fingerprint{});  // all-zero = "no registry input"
  // The JSON envelope exposes it (the key the ppserve/ppdriver consumers
  // share).
  EXPECT_NE(pp::to_json(res).find("\"input_fingerprint\": \"" + res.input_fp.hex() + "\""),
            std::string::npos);
}

TEST(Fingerprint, BatchItemsCarryInputFingerprints) {
  std::vector<problem_input> inputs;
  for (uint64_t s = 0; s < 3; ++s)
    inputs.push_back(registry::instance().make_input("lis", 200, s));
  auto batch = registry::run_batch("lis/sequential", inputs, seq_ctx(1));
  ASSERT_EQ(batch.items.size(), 3u);
  for (size_t i = 0; i < inputs.size(); ++i)
    EXPECT_EQ(batch.items[i].input_fp, fingerprint_of(inputs[i])) << i;
}

struct golden_row {
  const char* solver;
  size_t n;
  uint64_t seed;
  const char* fp_hex;
  long long score;
};

const golden_row kGolden[] = {
#include "golden_results.inc"
};

TEST(Fingerprint, GoldenTableCoversEverySolver) {
  std::set<std::string> tabled;
  for (const auto& row : kGolden) tabled.insert(row.solver);
  for (const auto& s : registry::instance().solvers()) {
    // Relaxed-paradigm solvers promise structural validity, not
    // bit-stability — they are exempt from the golden table by contract
    // (ppdriver golden skips them too), and tests/test_relaxed.cpp is
    // their coverage.
    if (s.paradigm == pp::solver_paradigm::relaxed) {
      EXPECT_FALSE(tabled.count(s.name))
          << s.name << " is relaxed-paradigm and must NOT be golden-tabled";
      continue;
    }
    EXPECT_TRUE(tabled.count(s.name)) << s.name << " missing from golden_results.inc — "
                                      << "regenerate with: ppdriver golden";
  }
}

TEST(Fingerprint, GoldenFingerprintsAndScoresAreStable) {
  for (const auto& row : kGolden) {
    const pp::solver_info* si = registry::instance().info(row.solver);
    ASSERT_NE(si, nullptr) << row.solver;
    auto input = registry::instance().make_input(si->problem, row.n, row.seed);
    EXPECT_EQ(fingerprint_of(input).hex(), row.fp_hex) << row.solver;
    auto res = registry::run(row.solver, input, seq_ctx(row.seed));
    EXPECT_EQ(res.status, pp::run_status::ok) << row.solver;
    EXPECT_EQ(static_cast<long long>(pp::score_of(res.value)), row.score) << row.solver;
  }
}

// The golden table builds its inputs at n = 256, where no factory loop is
// long enough to fork. These digests pin the graph, sssp and list factories
// at n = 20000, seed 1, where they cut their work into blocks and fork:
// each input must be byte-identical at every width.
TEST(Fingerprint, ForkingFactoriesAreStableAtEveryWidth) {
  const std::pair<const char*, const char*> pinned[] = {
      {"graph", "411f64e35b05207fe9cdb11e5c22a71e"},
      {"sssp", "c13cb954ab66ab624202d493a9f44b53"},
      {"list", "4557863fa0c29c8807ca85fd5e8b7b05"},
  };
  for (unsigned workers : {1u, 4u}) {
    pp::run_scope scope(pp::context{}.with_workers(workers));
    for (auto [problem, hex] : pinned)
      EXPECT_EQ(fingerprint_of(registry::instance().make_input(problem, 20000, 1)).hex(), hex)
          << problem << " at " << workers << " workers";
  }
}

}  // namespace
