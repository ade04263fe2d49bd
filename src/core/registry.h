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
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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
// Every descriptor names its problem (`problem`: the string its solvers
// and its input factory register under) and has a canonicalizer (declared
// beside it, implemented in registry.cpp) that emits its canonical word
// stream into a fingerprint_stream — see the stability contract in
// core/fingerprint.h. fingerprint_of visits every problem_input
// alternative, so one without a canonicalizer does not compile.

struct sequence_input {  // LIS / weighted LIS
  static constexpr std::string_view problem = "lis";
  std::vector<int64_t> a;
  std::vector<int32_t> weights;  // empty = unit weights
};
// Canonical form: an explicit all-ones weight vector IS the unit-weight
// input (both LIS paths compute `weights.empty() ? 1 : weights[i]`), so it
// canonicalizes to the empty spelling and the two fingerprint identically.
void canonicalize(const sequence_input& in, fingerprint_stream& s);

struct activity_input {  // weighted + unweighted selection
  static constexpr std::string_view problem = "activity";
  std::vector<activity> acts;  // sorted by sort_activities()
};
void canonicalize(const activity_input& in, fingerprint_stream& s);

struct graph_input {  // MIS, coloring, matching
  static constexpr std::string_view problem = "graph";
  graph g;
  std::vector<uint32_t> vertex_priority;  // permutation of 0..n-1
  std::vector<uint32_t> edge_priority;    // permutation of 0..m-1 (canonical edge order)
};
// CSR adjacency is sorted + deduped by construction, so two graphs built
// from any edge-list ordering serialize — and fingerprint — identically.
void canonicalize(const graph_input& in, fingerprint_stream& s);

struct sssp_input {
  static constexpr std::string_view problem = "sssp";
  wgraph g;
  vertex_t source = 0;
  uint32_t delta = 0;  // 0 = let delta-stepping pick min edge weight
};
void canonicalize(const sssp_input& in, fingerprint_stream& s);

struct huffman_input {
  static constexpr std::string_view problem = "huffman";
  std::vector<uint64_t> freqs;  // sorted ascending, all >= 1
};
void canonicalize(const huffman_input& in, fingerprint_stream& s);

struct knapsack_input {
  static constexpr std::string_view problem = "knapsack";
  int64_t capacity = 0;
  std::vector<knapsack_item> items;
};
void canonicalize(const knapsack_input& in, fingerprint_stream& s);

struct list_input {  // list ranking (weighted when weights set)
  static constexpr std::string_view problem = "list";
  std::vector<uint32_t> next;
  std::vector<int64_t> weights;  // empty = unweighted ranking
};
// NOT normalized like sequence_input: empty weights select the unweighted
// solvers (list_ranking_result), explicit weights the weighted ones
// (weighted_ranking_result) — different payload types, so an all-ones
// weight vector is a logically different input and keeps its own bytes.
void canonicalize(const list_input& in, fingerprint_stream& s);

struct shuffle_input {  // parallel Knuth shuffle
  static constexpr std::string_view problem = "shuffle";
  size_t n = 0;
  std::vector<uint32_t> targets;  // H[i] in [0, i]
};
void canonicalize(const shuffle_input& in, fingerprint_stream& s);

struct whac_input {  // Whac-A-Mole dominance DP
  static constexpr std::string_view problem = "whac";
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

// Which problem the held alternative belongs to (its descriptor's
// `problem`: "lis", "graph", ...) — the same string solver_info::problem
// uses, so callers can check an input/solver pairing without attempting a
// dispatch.
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

// Machine-readable envelopes (core/json.h writer; no external deps),
// generated from PP_RUN_RESULT_FIELDS / PP_BATCH_RESULT_FIELDS. The batch
// form nests every per-item envelope under "items" plus the aggregate
// seconds/rounds/scores, so CI can track the perf trajectory of a whole
// batch from one document.
void write_fields(json::writer& w, const run_result<solver_value>& r);
void write_fields(json::writer& w, const batch_result<solver_value>& r);
std::string to_json(const run_result<solver_value>& r);
std::string to_json(const batch_result<solver_value>& b);

// ---- The registry -----------------------------------------------------------

// ---- Execution paradigms and oracles ----------------------------------------
//
// Three ways a registered solver executes:
//   sequential — one thread, the work-efficient baseline/reference;
//   phase      — round-synchronous phase-parallel (the paper's model);
//                deterministic in (input, seed), covered by the golden
//                bit-stability table (tests/golden_results.inc);
//   relaxed    — asynchronous over the k-MultiQueue scheduler
//                (parallel/multiqueue.h); honors context::relax_k, and it
//                is EXEMPT from the golden table (the structural contract,
//                not bit-stability, is what it promises).
enum class solver_paradigm { sequential, phase, relaxed };

inline const char* paradigm_name(solver_paradigm p) {
  switch (p) {
    case solver_paradigm::sequential: return "sequential";
    case solver_paradigm::phase: return "phase";
    case solver_paradigm::relaxed: return "relaxed";
  }
  return "phase";
}

// What a solver is and which oracle checks it, declared once at its
// add_solver call.
struct solver_info {
  std::string name;           // "lis/parallel"
  std::string problem{};      // "lis" — set by add_solver from the input descriptor
  std::string description{};  // one line
  solver_paradigm paradigm = solver_paradigm::phase;
  // The sequential solver whose answer this one must reproduce: phase and
  // incremental solvers match its score, relaxed solvers give a
  // structurally valid answer against it (tests/checkers.h). Empty for a
  // reference solver.
  std::string reference{};
  // Relaxed solvers only: the phase solver of the same greedy order, the
  // twin the relaxed-vs-phase ablation compares against.
  std::string phase_ref{};
};

// Throws std::logic_error naming every solver that breaks a role rule:
// a reference must be a registered reference solver of the same problem;
// only sequential solvers may omit one; every relaxed solver, and no
// other, names a phase_ref, which must be a phase solver of its problem.
// registry::instance() runs it over the built-in solvers.
void check_solver_roles(std::span<const solver_info> solvers);

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

  // Register `fn` under `info`, a lambda `(const In&, const context&)` over
  // one input descriptor In that returns a solver_value alternative (it may
  // also take the dispatched problem_input, snapshot wrapper included, as a
  // third argument). The solver's problem is In::problem; dispatching any
  // other alternative throws std::invalid_argument.
  template <typename F>
  void add_solver(solver_info info, F fn);
  // Register `make(n, seed)`, which returns a descriptor In, as the default
  // random instance of problem In::problem.
  template <typename F>
  void add_problem(std::string description, F make);

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
  // scoped_context + one scheduler binding), so the pool lease is paid
  // once per batch instead of once per item — the serving-traffic shape.
  // Item i executes under ctx.with_seed(derive_seed(ctx.seed, i)) (unless
  // opts.derive_seeds is off), so results are independent of opts.order
  // and reproducible item-by-item with plain run() calls. Items land in
  // `items`/`scores` at their input index regardless of execution order.
  // Throws like run().
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

namespace detail {
// The input descriptor a solver callable takes: its first parameter.
template <typename M>
struct solver_input;
template <typename F, typename R, typename In, typename... Rest>
struct solver_input<R (F::*)(const In&, Rest...) const> {
  using type = In;
};
}  // namespace detail

template <typename F>
void registry::add_solver(solver_info info, F fn) {
  using In = typename detail::solver_input<decltype(&F::operator())>::type;
  info.problem = In::problem;
  auto run = [fn, who = info.name](const problem_input& in, const context& ctx) -> solver_value {
    // Snapshots dispatch as the input they pin, so every solver accepts
    // session traffic without knowing sessions exist.
    const In* x = std::get_if<In>(&unwrap_snapshot(in));
    if (!x) {
      throw std::invalid_argument("pp::registry: solver '" + who + "' expects a '" +
                                  std::string(In::problem) +
                                  "' input (wrong problem_input alternative)");
    }
    if constexpr (std::is_invocable_v<const F&, const In&, const context&, const problem_input&>) {
      return fn(*x, ctx, in);
    } else {
      return fn(*x, ctx);
    }
  };
  std::string name = info.name;
  solvers_.insert_or_assign(std::move(name), solver_entry{std::move(info), std::move(run)});
}

template <typename F>
void registry::add_problem(std::string description, F make) {
  using In = std::invoke_result_t<F, size_t, uint64_t>;
  std::string name(In::problem);
  problems_.insert_or_assign(
      name, problem_entry{problem_info{name, std::move(description)}, std::move(make)});
}

}  // namespace pp
