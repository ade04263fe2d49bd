// String-keyed solver registry: one dispatch surface for every
// phase-parallel algorithm in the library.
//
//   auto in  = pp::registry::instance().make_input("lis", 100'000, /*seed=*/1);
//   auto res = pp::registry::run("lis/parallel", in, ctx);
//   // res.value holds a lis_result; res.stats/seconds/backend are uniform.
//
// Solvers are registered under "problem/variant" names ("mis/tas",
// "sssp/delta_stepping", ...). Inputs are per-problem descriptor structs
// collected in the `problem_input` variant, so benches, examples, the
// tests, and tools/ppdriver.cpp all build and dispatch workloads the same
// way. Each problem also registers a default input factory (a random
// instance of size n from a seed) for uniform driving from the CLI.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "algos/activity.h"
#include "algos/activity_unweighted.h"
#include "algos/coloring.h"
#include "algos/huffman.h"
#include "algos/knapsack.h"
#include "algos/lis.h"
#include "algos/list_ranking.h"
#include "algos/matching.h"
#include "algos/mis.h"
#include "algos/random_shuffle.h"
#include "algos/sssp.h"
#include "algos/whac.h"
#include "core/context.h"
#include "core/fingerprint.h"
#include "core/result.h"
#include "graph/csr.h"

namespace pp {

// ---- Per-problem input descriptors ------------------------------------------
//
// Every descriptor has a canonicalizer (declared beside it, implemented in
// registry.cpp) that emits its canonical word stream into a
// fingerprint_stream — see the stability contract in core/fingerprint.h.
// tools/pplint.py's fingerprint-coverage rule enforces that every
// problem_input alternative keeps one.

struct sequence_input {  // problem "lis": LIS / weighted LIS
  std::vector<int64_t> a;
  std::vector<int32_t> weights;  // empty = unit weights
};
// Canonical form: an explicit all-ones weight vector IS the unit-weight
// input (both LIS paths compute `weights.empty() ? 1 : weights[i]`), so it
// canonicalizes to the empty spelling and the two fingerprint identically.
void canonicalize(const sequence_input& in, fingerprint_stream& s);

struct activity_input {  // problem "activity": weighted + unweighted selection
  std::vector<activity> acts;  // sorted by sort_activities()
};
void canonicalize(const activity_input& in, fingerprint_stream& s);

struct graph_input {  // problem "graph": MIS, coloring, matching
  graph g;
  std::vector<uint32_t> vertex_priority;  // permutation of 0..n-1
  std::vector<uint32_t> edge_priority;    // permutation of 0..m-1 (canonical edge order)
};
// CSR adjacency is sorted + deduped by construction, so two graphs built
// from any edge-list ordering serialize — and fingerprint — identically.
void canonicalize(const graph_input& in, fingerprint_stream& s);

struct sssp_input {  // problem "sssp"
  wgraph g;
  vertex_t source = 0;
  uint32_t delta = 0;  // 0 = let delta-stepping pick min edge weight
};
void canonicalize(const sssp_input& in, fingerprint_stream& s);

struct huffman_input {  // problem "huffman"
  std::vector<uint64_t> freqs;  // sorted ascending, all >= 1
};
void canonicalize(const huffman_input& in, fingerprint_stream& s);

struct knapsack_input {  // problem "knapsack"
  int64_t capacity = 0;
  std::vector<knapsack_item> items;
};
void canonicalize(const knapsack_input& in, fingerprint_stream& s);

struct list_input {  // problem "list": list ranking (weighted when weights set)
  std::vector<uint32_t> next;
  std::vector<int64_t> weights;  // empty = unweighted ranking
};
// NOT normalized like sequence_input: empty weights select the unweighted
// solvers (list_ranking_result), explicit weights the weighted ones
// (weighted_ranking_result) — different payload types, so an all-ones
// weight vector is a logically different input and keeps its own bytes.
void canonicalize(const list_input& in, fingerprint_stream& s);

struct shuffle_input {  // problem "shuffle": parallel Knuth shuffle
  size_t n = 0;
  std::vector<uint32_t> targets;  // H[i] in [0, i]
};
void canonicalize(const shuffle_input& in, fingerprint_stream& s);

struct whac_input {  // problem "whac": Whac-A-Mole dominance DP
  std::vector<mole> moles;
};
void canonicalize(const whac_input& in, fingerprint_stream& s);

struct snapshot_input;  // versioned session snapshot (defined below the variant)

using problem_input =
    std::variant<sequence_input, activity_input, graph_input, sssp_input, huffman_input,
                 knapsack_input, list_input, shuffle_input, whac_input, snapshot_input>;

// An immutable versioned view of a session instance (src/serve/session.h).
// Holds the materialized base input by shared pointer — copies are O(1), and
// in-flight solves pin version v while the session writer installs v+1.
// `base` is never null and never itself a snapshot. `fp` is maintained
// incrementally by the session store (per-version fp = parent fp ⊕ delta
// fp), so canonicalize() emits just those two words: the serve-layer result
// cache and in-flight dedup address a 200k-node instance without rehashing
// it on every delta. The optional hint fields let incremental solvers
// (sssp/incremental) reuse the previous version's labels; solvers that
// ignore them see exactly the base input.
struct snapshot_input {
  std::shared_ptr<const problem_input> base;
  uint64_t version = 0;
  fingerprint fp{};
  // Incremental-solve hints: distances computed at some earlier version,
  // plus every edge inserted since. Null/empty when no usable prior solve
  // exists (fresh instance, or a delta that invalidated the labels).
  std::shared_ptr<const std::vector<int64_t>> prior_dist;
  std::shared_ptr<const std::vector<wgraph::wedge>> inserted_edges;
};
void canonicalize(const snapshot_input& in, fingerprint_stream& s);

// The held alternative with any snapshot wrapper removed: snapshots resolve
// to their materialized base input, every other alternative returns itself.
// Solver dispatch, score checking, and the structural checkers all unwrap
// through this so a snapshot behaves exactly like the value it pins.
const problem_input& unwrap_snapshot(const problem_input& in);

// Which problem the held alternative belongs to ("lis", "graph", ...) —
// the same string solver_info::problem uses, so callers can check an
// input/solver pairing without attempting a dispatch.
std::string_view problem_name_of(const problem_input& in);

// The 128-bit content address of an input: variant tag + the held
// alternative's canonical word stream, digested. Two inputs with equal
// fingerprints are (up to 2^-128 collisions) the same logical problem
// instance, so (solver, fingerprint, seed) addresses a deterministic
// result — the key the serve-layer cache/dedup, the ppfuzz corpus, and
// the golden-result regression table share.
fingerprint fingerprint_of(const problem_input& in);

// ---- Type-erased solver payload ---------------------------------------------

using solver_value =
    std::variant<lis_result, activity_result, unweighted_activity_result, mis_result,
                 coloring_result, matching_result, sssp_result, huffman_result,
                 knapsack_result, list_ranking_result, weighted_ranking_result,
                 shuffle_result, whac_result>;

// Every payload carries phase statistics; extract them uniformly.
phase_stats stats_of(const solver_value& v);

// A canonical scalar answer per payload (LIS length, |MIS|, best weight,
// weighted path length, ...) for quick cross-checks and CLI output.
int64_t score_of(const solver_value& v);

// One-line human-readable summary of the payload.
std::string summary_of(const solver_value& v);

// Machine-readable envelopes (core/json.h writer; no external deps). The
// batch form nests every per-item envelope under "items" plus the
// aggregate seconds/rounds/scores, so CI can track the perf trajectory of
// a whole batch from one document.
std::string to_json(const run_result<solver_value>& r);
std::string to_json(const batch_result<solver_value>& b);

// ---- The registry -----------------------------------------------------------

struct solver_info {
  std::string name;         // "lis/parallel"
  std::string problem;      // "lis" — which problem_input alternative it consumes
  std::string description;  // one line
};

// ---- Execution paradigms ----------------------------------------------------
//
// Three ways a registered solver executes:
//   sequential — one thread, the work-efficient baseline/reference;
//   phase      — round-synchronous phase-parallel (the paper's model);
//                deterministic in (input, seed), covered by the golden
//                bit-stability table (tests/golden_results.inc);
//   relaxed    — asynchronous over the k-MultiQueue scheduler
//                (parallel/multiqueue.h); honors context::relax_k, its
//                outputs are validated structurally against the phase
//                reference, and it is EXEMPT from the golden table (the
//                structural contract, not bit-stability, is what it
//                promises).
// The paradigm is derived from the registered name — "<family>/relaxed"
// and "<family>/sequential" are naming contracts (pplint enforces the
// relaxed side) — so the 30+ existing registrations need no extra field.
enum class solver_paradigm { sequential, phase, relaxed };

inline solver_paradigm paradigm_of(const solver_info& info) {
  std::string_view name = info.name;
  size_t slash = name.rfind('/');
  std::string_view variant = slash == std::string_view::npos ? name : name.substr(slash + 1);
  if (variant == "relaxed") return solver_paradigm::relaxed;
  // sssp/dijkstra is the sequential reference of its family despite the
  // historical name (the same exception tools/pplint.py's solver-coverage
  // rule carries); sssp/incremental is a seeded sequential Dijkstra.
  if (variant == "sequential" || name == "sssp/dijkstra" || name == "sssp/incremental")
    return solver_paradigm::sequential;
  return solver_paradigm::phase;
}

inline const char* paradigm_name(solver_paradigm p) {
  switch (p) {
    case solver_paradigm::sequential: return "sequential";
    case solver_paradigm::phase: return "phase";
    case solver_paradigm::relaxed: return "relaxed";
  }
  return "phase";
}

// Whether the solver consults context::relax_k (today: exactly the
// relaxed paradigm).
inline bool accepts_relax_knob(const solver_info& info) {
  return paradigm_of(info) == solver_paradigm::relaxed;
}

class registry {
 public:
  using solver_fn = std::function<solver_value(const problem_input&, const context&)>;
  using input_fn = std::function<problem_input(size_t n, uint64_t seed)>;

  struct problem_info {
    std::string name;
    std::string description;
  };

  // The process-wide registry, with all built-in solvers registered.
  static registry& instance();

  void add_solver(solver_info info, solver_fn fn);
  void add_problem(std::string name, std::string description, input_fn make);

  bool contains(std::string_view name) const;
  std::vector<solver_info> solvers() const;    // sorted by name
  std::vector<problem_info> problems() const;  // sorted by name

  // Non-throwing metadata lookup: the solver's info, or nullptr when the
  // name is unknown. The serving engine validates requests with this at
  // admission time so one bad request cannot poison a coalesced batch.
  const solver_info* info(std::string_view name) const;

  // Default random instance of a problem (size n, derived from seed).
  problem_input make_input(std::string_view problem, size_t n, uint64_t seed) const;

  // Look up `name`, run it on `input` under `ctx`, and wrap payload +
  // stats + timing in a run_result. Throws std::out_of_range for unknown
  // solvers and std::invalid_argument when `input` holds the wrong
  // alternative for the solver's problem.
  static run_result<solver_value> run(std::string_view name, const problem_input& input,
                                      const context& ctx = default_context());

  // Batched dispatch: run `name` on every input under ONE run_scope (one
  // scoped_context + one scheduler binding), so the pool lease / OpenMP
  // team warm-up is paid once per batch instead of once per item — the
  // serving-traffic shape. Item i executes under
  // ctx.with_seed(derive_seed(ctx.seed, i)) (unless opts.derive_seeds is
  // off), so results are independent of opts.order and reproducible
  // item-by-item with plain run() calls. Items land in `items`/`scores`
  // at their input index regardless of execution order. Throws like run().
  static batch_result<solver_value> run_batch(std::string_view name,
                                              std::span<const problem_input> inputs,
                                              const context& ctx = default_context(),
                                              const batch_options& opts = {});

  // Repeat one input `count` times without copying it (the --repeats
  // shape; combine with opts.derive_seeds=false for identical repeats).
  static batch_result<solver_value> run_batch(std::string_view name, const problem_input& input,
                                              size_t count,
                                              const context& ctx = default_context(),
                                              const batch_options& opts = {});

 private:
  registry() = default;

  struct solver_entry {
    solver_info info;
    solver_fn fn;
  };
  struct problem_entry {
    problem_info info;
    input_fn make;
  };

  // Lookup for the static dispatchers; throws std::out_of_range on an
  // unknown name.
  static const solver_entry& find_solver(std::string_view name);

  // Shared core of both run_batch overloads: `input_at(i)` supplies item
  // i's input (a span element, or the same input `count` times).
  static batch_result<solver_value> run_batch_impl(
      const solver_entry& e, size_t count,
      const std::function<const problem_input&(size_t)>& input_at, const context& ctx,
      const batch_options& opts);

  std::map<std::string, solver_entry, std::less<>> solvers_;
  std::map<std::string, problem_entry, std::less<>> problems_;
};

}  // namespace pp
