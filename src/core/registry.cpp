#include "core/registry.h"

#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "algos/relaxed.h"
#include "core/json.h"
#include "graph/generators.h"
#include "parallel/random.h"

namespace pp {

namespace {

// Order-independent fold of a value vector into one scalar, for payloads
// whose natural answer is a whole array (list ranking, shuffle).
template <typename T>
int64_t fold_checksum(const std::vector<T>& xs) {
  uint64_t acc = 0;
  for (size_t i = 0; i < xs.size(); ++i) acc ^= hash64(hash64(i) ^ static_cast<uint64_t>(xs[i]));
  return static_cast<int64_t>(acc >> 1);
}

// One entry per solver_value alternative: its summary label and its
// canonical score. score_of and summary_of visit these overloads, so an
// alternative without an entry does not compile.
struct result_entry {
  const char* label;
  int64_t score;
};

result_entry entry_of(const lis_result& r) { return {"lis(length)", r.length}; }
result_entry entry_of(const activity_result& r) { return {"activity(best)", r.best}; }
result_entry entry_of(const unweighted_activity_result& r) {
  return {"activity(count)", r.best};
}
result_entry entry_of(const mis_result& r) {
  return {"mis(size)", static_cast<int64_t>(r.mis_size)};
}
result_entry entry_of(const coloring_result& r) {
  return {"coloring(colors)", static_cast<int64_t>(r.num_colors)};
}
result_entry entry_of(const matching_result& r) {
  return {"matching(size)", static_cast<int64_t>(r.matching_size)};
}
result_entry entry_of(const sssp_result& r) {
  int64_t sum = 0;
  size_t reachable = 0;
  for (auto d : r.dist) {
    if (d < kInfDist) {
      sum = static_cast<int64_t>(static_cast<uint64_t>(sum) + static_cast<uint64_t>(d));
      ++reachable;
    }
  }
  return {"sssp(dist-checksum)",
          static_cast<int64_t>(hash64(static_cast<uint64_t>(sum) ^ reachable) >> 1)};
}
result_entry entry_of(const huffman_result& r) {
  return {"huffman(wpl)", static_cast<int64_t>(r.wpl)};
}
result_entry entry_of(const knapsack_result& r) { return {"knapsack(best)", r.best}; }
result_entry entry_of(const list_ranking_result& r) {
  return {"list(checksum)", fold_checksum(r.rank)};
}
result_entry entry_of(const weighted_ranking_result& r) {
  return {"list(checksum)", fold_checksum(r.rank)};
}
result_entry entry_of(const shuffle_result& r) {
  return {"shuffle(checksum)", fold_checksum(r.perm)};
}
result_entry entry_of(const whac_result& r) { return {"whac(best)", r.best}; }

}  // namespace

phase_stats stats_of(const solver_value& v) {
  return std::visit([](const auto& r) { return r.stats; }, v);
}

int64_t score_of(const solver_value& v) {
  return std::visit([](const auto& r) { return entry_of(r).score; }, v);
}

std::string summary_of(const solver_value& v) {
  result_entry e = std::visit([](const auto& r) { return entry_of(r); }, v);
  phase_stats st = stats_of(v);
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s=%lld rounds=%zu processed=%zu max_frontier=%zu", e.label,
                static_cast<long long>(e.score), st.rounds, st.processed, st.max_frontier);
  return buf;
}

bool registry::contains(std::string_view name) const {
  return solvers_.find(name) != solvers_.end();
}

const solver_info* registry::info(std::string_view name) const {
  auto it = solvers_.find(name);
  return it == solvers_.end() ? nullptr : &it->second.info;
}

const problem_input& unwrap_snapshot(const problem_input& in) {
  const auto* snap = std::get_if<snapshot_input>(&in);
  return snap ? *snap->base : in;
}

std::string_view problem_name_of(const problem_input& in) {
  return std::visit(
      [](const auto& x) -> std::string_view {
        using T = std::decay_t<decltype(x)>;
        // A snapshot belongs to whatever problem its pinned base input does
        // (`base` is never itself a snapshot, so this recurses at most once).
        if constexpr (std::is_same_v<T, snapshot_input>) return problem_name_of(*x.base);
        else return T::problem;
      },
      in);
}

// ---- Canonicalizers ---------------------------------------------------------
// One per problem_input alternative (fingerprint_of does not compile
// without it). Each emits a self-delimiting word stream: lengths before
// elements, every field in declaration order, no representational freedom
// left (see the per-struct notes in registry.h). Changing any encoding here
// is a fingerprint break: bump kFingerprintVersion and regenerate
// tests/golden_results.inc (`ppdriver golden`).

void canonicalize(const sequence_input& in, fingerprint_stream& s) {
  s.vec(in.a);
  // Unit-weight normalization: explicit all-ones == empty (see registry.h).
  bool unit = true;
  for (int32_t w : in.weights) unit = unit && w == 1;
  if (unit) {
    s.size(0);
  } else {
    s.vec(in.weights);
  }
}

void canonicalize(const activity_input& in, fingerprint_stream& s) {
  s.size(in.acts.size());
  for (const activity& a : in.acts) {
    s.i64(a.start);
    s.i64(a.end);
    s.i64(a.weight);
  }
}

void canonicalize(const graph_input& in, fingerprint_stream& s) {
  const graph& g = in.g;
  s.size(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) s.vec(g.neighbors(v));
  s.vec(in.vertex_priority);
  s.vec(in.edge_priority);
}

void canonicalize(const sssp_input& in, fingerprint_stream& s) {
  const wgraph& g = in.g;
  s.size(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    s.vec(g.out_neighbors(v));
    s.vec(g.out_weights(v));
  }
  s.u32(in.source);
  s.u32(in.delta);
}

void canonicalize(const huffman_input& in, fingerprint_stream& s) { s.vec(in.freqs); }

void canonicalize(const knapsack_input& in, fingerprint_stream& s) {
  s.i64(in.capacity);
  s.size(in.items.size());
  for (const knapsack_item& it : in.items) {
    s.i64(it.weight);
    s.i64(it.value);
  }
}

void canonicalize(const list_input& in, fingerprint_stream& s) {
  s.vec(in.next);
  s.vec(in.weights);  // deliberately NOT unit-normalized; see registry.h
}

void canonicalize(const shuffle_input& in, fingerprint_stream& s) {
  s.size(in.n);
  s.vec(in.targets);
}

void canonicalize(const whac_input& in, fingerprint_stream& s) {
  s.size(in.moles.size());
  for (const mole& m : in.moles) {
    s.i64(m.t);
    s.i64(m.p);
  }
}

void canonicalize(const snapshot_input& in, fingerprint_stream& s) {
  // The session store maintains `fp` incrementally (parent fp ⊕ delta fp
  // over the per-element content hashes — see serve/session.cpp), so the
  // canonical form of a snapshot is just those two words: content
  // addressing for a 200k-node instance costs O(1) per version instead of
  // O(m). The variant tag prepended by fingerprint_of keeps this domain
  // separated from every plain alternative, so a snapshot can never alias
  // a value-passed input that happens to contain the same words.
  s.u64(in.fp.hi);
  s.u64(in.fp.lo);
}

fingerprint fingerprint_of(const problem_input& in) {
  fingerprint_stream s;
  s.tag(in.index());  // domain separation between alternatives
  std::visit([&s](const auto& alt) { canonicalize(alt, s); }, in);
  return s.digest();
}

void check_solver_roles(std::span<const solver_info> solvers) {
  std::map<std::string_view, const solver_info*> by_name;
  for (const solver_info& s : solvers) by_name.emplace(s.name, &s);
  auto find = [&](const std::string& name) -> const solver_info* {
    auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : it->second;
  };
  std::string broken;
  auto fail = [&](const solver_info& s, const std::string& why) {
    broken += "\n  " + s.name + ": " + why;
  };
  for (const solver_info& s : solvers) {
    if (s.reference.empty()) {
      if (s.paradigm != solver_paradigm::sequential)
        fail(s, std::string("a ") + paradigm_name(s.paradigm) + " solver must name a reference");
    } else if (const solver_info* ref = find(s.reference); !ref) {
      fail(s, "reference '" + s.reference + "' is not registered");
    } else if (!ref->reference.empty()) {
      fail(s, "reference '" + s.reference + "' is not a reference solver (it names '" +
                  ref->reference + "')");
    } else if (ref->problem != s.problem) {
      fail(s, "reference '" + s.reference + "' solves '" + ref->problem + "', not '" +
                  s.problem + "'");
    }
    const bool relaxed = s.paradigm == solver_paradigm::relaxed;
    if (relaxed && s.phase_ref.empty()) {
      fail(s, "a relaxed solver must name its phase_ref");
    } else if (!relaxed && !s.phase_ref.empty()) {
      fail(s, "only relaxed solvers name a phase_ref");
    } else if (relaxed) {
      const solver_info* twin = find(s.phase_ref);
      if (!twin || twin->paradigm != solver_paradigm::phase || twin->problem != s.problem)
        fail(s, "phase_ref '" + s.phase_ref + "' is not a registered phase solver of '" +
                    s.problem + "'");
    }
  }
  if (!broken.empty()) throw std::logic_error("pp::registry: solver roles broken:" + broken);
}

std::vector<solver_info> registry::solvers() const {
  std::vector<solver_info> out;
  out.reserve(solvers_.size());
  for (const auto& [k, e] : solvers_) out.push_back(e.info);
  return out;
}

std::vector<registry::problem_info> registry::problems() const {
  std::vector<problem_info> out;
  out.reserve(problems_.size());
  for (const auto& [k, e] : problems_) out.push_back(e.info);
  return out;
}

problem_input registry::make_input(std::string_view problem, size_t n, uint64_t seed) const {
  auto it = problems_.find(problem);
  if (it == problems_.end())
    throw std::out_of_range("pp::registry: unknown problem '" + std::string(problem) + "'");
  return it->second.make(n, seed);
}

const registry::solver_entry& registry::find_solver(std::string_view name) {
  registry& r = instance();
  auto it = r.solvers_.find(name);
  if (it == r.solvers_.end())
    throw std::out_of_range("pp::registry: unknown solver '" + std::string(name) + "'");
  return it->second;
}

run_result<solver_value> registry::run(std::string_view name, const problem_input& input,
                                       const context& ctx) {
  const solver_entry& e = find_solver(name);
  auto res = run_timed(e.info.name, ctx,
                       [&](const context& c) -> solver_value { return e.fn(input, c); });
  res.stats = stats_of(res.value);  // the variant hides the payload's .stats member
  res.input_fp = fingerprint_of(input);
  return res;
}

batch_result<solver_value> registry::run_batch_impl(
    const solver_entry& e, size_t count,
    const std::function<const problem_input&(size_t)>& input_at, const context& ctx,
    const batch_options& opts) {
  if (!opts.seeds.empty() && opts.seeds.size() != count) {
    throw std::invalid_argument("pp::registry: batch_options.seeds has " +
                                std::to_string(opts.seeds.size()) + " entries for " +
                                std::to_string(count) + " items");
  }
  if (!opts.tokens.empty() && opts.tokens.size() != count) {
    throw std::invalid_argument("pp::registry: batch_options.tokens has " +
                                std::to_string(opts.tokens.size()) + " entries for " +
                                std::to_string(count) + " items");
  }
  batch_result<solver_value> out;
  out.solver = e.info.name;
  out.backend = ctx.backend;
  out.seed = ctx.seed;
  out.items.resize(count);
  out.scores.resize(count);

  // Execution order: input order, or a Fisher-Yates permutation derived
  // from the base seed. Per-item seeds are derived from the *input* index,
  // so shuffling reorders wall-clock interleaving only — every item's
  // result is identical under either order.
  std::vector<size_t> order(count);
  std::iota(order.begin(), order.end(), size_t{0});
  if (opts.order == batch_options::item_order::shuffled) {
    for (size_t i = count; i > 1; --i) {
      size_t j = static_cast<size_t>(
          random_stream(hash64(ctx.seed ^ 0xba7c4ed5u)).ith_bounded(i - 1, i));
      std::swap(order[i - 1], order[j]);
    }
  }

  // Fingerprint each item's input once per distinct object: the --repeats
  // overload hands every item the same input&, so hashing by address
  // collapses N envelope fingerprints into one canonicalization pass.
  const problem_input* fp_src = nullptr;
  fingerprint fp{};
  auto fp_of = [&](const problem_input& in) {
    if (&in != fp_src) {
      fp_src = &in;
      fp = fingerprint_of(in);
    }
    return fp;
  };

  // The whole batch shares ONE run_scope: the context is installed and the
  // scheduler bound (pool lease) here, once.
  // Per-item dispatches below construct nested scopes that reuse the
  // pinned pool, so scheduler acquisition is amortized across the batch —
  // and nests correctly when run_batch is itself called from inside an
  // enclosing run (the nested scope shadows the enclosing one, and no
  // second lease is taken).
  run_scope scope(ctx);
  out.workers = scope.workers();
  for (size_t i : order) {
    context item_ctx = !opts.seeds.empty() ? ctx.with_seed(opts.seeds[i])
                       : opts.derive_seeds ? ctx.with_seed(derive_seed(ctx.seed, i))
                                           : ctx;
    if (!opts.tokens.empty()) item_ctx = item_ctx.with_cancel(opts.tokens[i]);
    // An item whose token already fired (e.g. its deadline passed while
    // earlier batchmates ran) is skipped outright: a cancelled envelope
    // with no solve time, instead of starting work nobody wants. Items
    // with live (or no) tokens execute normally — only the expired ones
    // fail.
    if (item_ctx.cancel.cancelled()) {
      run_result<solver_value> res;
      res.solver = e.info.name;
      res.backend = item_ctx.backend;
      res.seed = item_ctx.seed;
      res.workers = out.workers;
      res.status = run_status::cancelled;
      res.input_fp = fp_of(input_at(i));
      out.scores[i] = 0;
      out.items[i] = std::move(res);
      continue;
    }
    const problem_input& in = input_at(i);
    auto res = run_timed(e.info.name, item_ctx,
                         [&](const context& c) -> solver_value { return e.fn(in, c); });
    res.stats = stats_of(res.value);
    res.input_fp = fp_of(in);
    out.scores[i] = res.cancelled() ? 0 : score_of(res.value);
    out.items[i] = std::move(res);
  }
  out.recompute_aggregates();
  return out;
}

batch_result<solver_value> registry::run_batch(std::string_view name,
                                               std::span<const problem_input> inputs,
                                               const context& ctx, const batch_options& opts) {
  return run_batch_impl(
      find_solver(name), inputs.size(),
      [&inputs](size_t i) -> const problem_input& { return inputs[i]; }, ctx, opts);
}

batch_result<solver_value> registry::run_batch(std::string_view name, const problem_input& input,
                                               size_t count, const context& ctx,
                                               const batch_options& opts) {
  return run_batch_impl(
      find_solver(name), count, [&input](size_t) -> const problem_input& { return input; }, ctx,
      opts);
}

void write_fields(json::writer& w, const phase_stats& r) {
  PP_WRITE_FIELDS(PP_PHASE_STATS_FIELDS)
}

void write_fields(json::writer& w, const run_result<solver_value>& r) {
  PP_WRITE_FIELDS(PP_RUN_RESULT_FIELDS)
}

void write_fields(json::writer& w, const batch_result<solver_value>& r) {
  PP_WRITE_FIELDS(PP_BATCH_RESULT_FIELDS)
}

std::string to_json(const run_result<solver_value>& r) { return json::writer().value(r).str(); }

std::string to_json(const batch_result<solver_value>& b) { return json::writer().value(b).str(); }

namespace {

// All built-in solvers and problems, registered once on first
// registry::instance() access.
void register_builtins(registry& r) {
  // ---- problems: default random instances ----------------------------------
  r.add_problem("integer sequence (uniform values in [0, 4n))", [](size_t n, uint64_t seed) {
    random_stream rs(seed);
    sequence_input in;
    in.a = tabulate<int64_t>(
        n, [&](size_t i) { return rs.ith_range(i, 0, static_cast<int64_t>(4 * n) + 1); });
    return in;
  });
  r.add_problem("random weighted activities (Sec. 6.1 distribution)",
                [](size_t n, uint64_t seed) {
                  return activity_input{random_activities(n, 1'000'000, 800.0, 200.0, 100, seed)};
                });
  r.add_problem("rmat graph, ~8n edges, random vertex+edge priorities",
                [](size_t n, uint64_t seed) {
                  graph_input in;
                  in.g = rmat_graph(static_cast<vertex_t>(n), 8 * n, seed);
                  in.vertex_priority = random_permutation(in.g.num_vertices(), hash64(seed) | 1);
                  in.edge_priority = random_permutation(in.g.num_edges(), hash64(seed + 1) | 1);
                  return in;
                });
  r.add_problem("random directed weighted graph, ~8n edges, weights in [1, 1024]",
                [](size_t n, uint64_t seed) {
                  sssp_input in;
                  auto g = random_graph(static_cast<vertex_t>(n), 8 * n, seed);
                  in.g = add_weights(g, 1, 1024, hash64(seed + 2));
                  in.source = 0;
                  return in;
                });
  r.add_problem("sorted uniform frequencies in [1, 1000]", [](size_t n, uint64_t seed) {
    return huffman_input{uniform_freqs(n, 1000, seed)};
  });
  r.add_problem("capacity n, 64 random items with weights in [25, 100]",
                [](size_t n, uint64_t seed) {
                  knapsack_input in;
                  in.capacity = static_cast<int64_t>(n);
                  in.items = random_items(64, 25, 100, 50, seed);
                  return in;
                });
  r.add_problem("random linked list over n nodes", [](size_t n, uint64_t seed) {
    return list_input{random_list(n, seed), {}};
  });
  r.add_problem("Knuth-shuffle swap targets for n elements", [](size_t n, uint64_t seed) {
    return shuffle_input{n, knuth_targets(n, seed)};
  });
  r.add_problem("random moles (times in [0, 1e6), positions in [0, n/10))",
                [](size_t n, uint64_t seed) {
                  int64_t p_range = std::max<int64_t>(static_cast<int64_t>(n / 10), 100);
                  return whac_input{random_moles(n, 1'000'000, p_range, seed)};
                });

  // ---- solvers --------------------------------------------------------------
  // Each solver takes its input descriptor; the registry derives the
  // problem from it and rejects any other problem_input alternative.
  // Solvers whose branches return different payloads say -> solver_value.
  // Each names its paradigm and, unless it is a reference solver, the
  // reference it must reproduce (checked by check_solver_roles).
  using enum solver_paradigm;
  r.add_solver({.name = "lis/sequential", .description = "classic O(n log n) Fenwick DP",
                .paradigm = sequential},
               [](const sequence_input& s, const context& ctx) {
                 return s.weights.empty() ? lis_sequential(s.a, ctx)
                                          : lis_sequential_weighted(s.a, s.weights, ctx);
               });
  r.add_solver({.name = "lis/parallel",
                .description = "phase-parallel LIS (Algorithm 3, 2D range tree)", .paradigm = phase,
                .reference = "lis/sequential"},
               [](const sequence_input& s, const context& ctx) {
                 return s.weights.empty() ? lis_parallel(s.a, ctx)
                                          : lis_parallel_weighted(s.a, s.weights, ctx);
               });

  r.add_solver({.name = "activity/sequential", .description = "classic O(n log n) DP (Eq. 1)",
                .paradigm = sequential},
               [](const activity_input& a, const context& ctx) {
                 return activity_select_seq(a.acts, ctx);
               });
  r.add_solver({.name = "activity/type1",
                .description = "Algorithm 2: range-query frontiers on flat arrays",
                .paradigm = phase, .reference = "activity/sequential"},
               [](const activity_input& a, const context& ctx) {
                 return activity_select_type1(a.acts, ctx);
               });
  r.add_solver({.name = "activity/type2", .description = "Sec. 5.1 pivot wake-ups",
                .paradigm = phase, .reference = "activity/sequential"},
               [](const activity_input& a, const context& ctx) {
                 return activity_select_type2(a.acts, ctx);
               });
  r.add_solver({.name = "activity_unweighted/sequential",
                .description = "earliest-end greedy chain", .paradigm = sequential},
               [](const activity_input& a, const context& ctx) {
                 return activity_unweighted_greedy_seq(a.acts, ctx);
               });
  r.add_solver({.name = "activity_unweighted/parallel",
                .description = "pivot forest + pointer jumping", .paradigm = phase,
                .reference = "activity_unweighted/sequential"},
               [](const activity_input& a, const context& ctx) {
                 return activity_unweighted_parallel(a.acts, ctx);
               });
  r.add_solver({.name = "activity_unweighted/euler",
                .description = "pivot forest + Euler-tour depths (Theorem 5.3 route)",
                .paradigm = phase, .reference = "activity_unweighted/sequential"},
               [](const activity_input& a, const context& ctx) {
                 return activity_unweighted_euler(a.acts, ctx);
               });

  r.add_solver({.name = "mis/sequential", .description = "greedy MIS by priority order",
                .paradigm = sequential},
               [](const graph_input& g, const context& ctx) {
                 return mis_sequential(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({.name = "mis/rounds", .description = "deterministic-reservation rounds [BFGS12]",
                .paradigm = phase, .reference = "mis/sequential"},
               [](const graph_input& g, const context& ctx) {
                 return mis_rounds(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({.name = "mis/tas", .description = "Algorithm 4: asynchronous TAS-tree wake-ups",
                .paradigm = phase, .reference = "mis/sequential"},
               [](const graph_input& g, const context& ctx) {
                 return mis_tas(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({.name = "coloring/sequential",
                .description = "greedy coloring, Jones-Plassmann order", .paradigm = sequential},
               [](const graph_input& g, const context& ctx) {
                 return coloring_sequential(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({.name = "coloring/tas", .description = "TAS-tree wake-up greedy coloring",
                .paradigm = phase, .reference = "coloring/sequential"},
               [](const graph_input& g, const context& ctx) {
                 return coloring_tas(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({.name = "matching/sequential", .description = "greedy matching by edge priority",
                .paradigm = sequential},
               [](const graph_input& g, const context& ctx) {
                 return matching_sequential(g.g, g.edge_priority, ctx);
               });
  r.add_solver({.name = "matching/rounds", .description = "round-synchronized greedy matching",
                .paradigm = phase, .reference = "matching/sequential"},
               [](const graph_input& g, const context& ctx) {
                 return matching_rounds(g.g, g.edge_priority, ctx);
               });

  // Relaxed k-MultiQueue paradigm (parallel/multiqueue.h): validated
  // structurally against `reference` (tests/checkers.h); `phase_ref` is the
  // phase solver of the same greedy order.
  r.add_solver({.name = "mis/relaxed", .description = "k-MultiQueue asynchronous greedy MIS",
                .paradigm = relaxed, .reference = "mis/sequential", .phase_ref = "mis/rounds"},
               [](const graph_input& g, const context& ctx) {
                 return mis_relaxed(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({.name = "coloring/relaxed",
                .description = "k-MultiQueue asynchronous greedy coloring", .paradigm = relaxed,
                .reference = "coloring/sequential", .phase_ref = "coloring/tas"},
               [](const graph_input& g, const context& ctx) {
                 return coloring_relaxed(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({.name = "matching/relaxed",
                .description = "k-MultiQueue asynchronous greedy matching", .paradigm = relaxed,
                .reference = "matching/sequential", .phase_ref = "matching/rounds"},
               [](const graph_input& g, const context& ctx) {
                 return matching_relaxed(g.g, g.edge_priority, ctx);
               });

  r.add_solver({.name = "sssp/dijkstra", .description = "sequential binary-heap Dijkstra",
                .paradigm = sequential},
               [](const sssp_input& s, const context& ctx) {
                 return sssp_dijkstra(s.g, s.source, ctx);
               });
  r.add_solver({.name = "sssp/bellman_ford", .description = "frontier-based parallel Bellman-Ford",
                .paradigm = phase, .reference = "sssp/dijkstra"},
               [](const sssp_input& s, const context& ctx) {
                 return sssp_bellman_ford(s.g, s.source, ctx);
               });
  r.add_solver({.name = "sssp/delta_stepping",
                .description = "Meyer-Sanders buckets (delta from input)", .paradigm = phase,
                .reference = "sssp/dijkstra"},
               [](const sssp_input& s, const context& ctx) {
                 uint32_t delta = s.delta != 0 ? s.delta : s.g.min_weight();
                 return sssp_delta_stepping(s.g, s.source, delta, ctx);
               });
  r.add_solver({.name = "sssp/phase_parallel",
                .description = "Delta-stepping with Delta = w* (Theorem 4.5)", .paradigm = phase,
                .reference = "sssp/dijkstra"},
               [](const sssp_input& s, const context& ctx) {
                 return sssp_phase_parallel(s.g, s.source, ctx);
               });
  r.add_solver({.name = "sssp/crauser", .description = "Crauser IN/OUT-criterion rounds (Sec. 4.3)",
                .paradigm = phase, .reference = "sssp/dijkstra"},
               [](const sssp_input& s, const context& ctx) {
                 return sssp_crauser(s.g, s.source, /*use_in_criterion=*/true, ctx);
               });
  r.add_solver({.name = "sssp/incremental",
                .description = "delta re-solve over session snapshots: seeds Dijkstra from the "
                                "prior version's distances + inserted edges, exact",
                .paradigm = sequential, .reference = "sssp/dijkstra"},
               [](const sssp_input& s, const context& ctx, const problem_input& in) {
                 // Only a snapshot carries reusable labels; a plain input —
                 // or a snapshot whose hints a removal invalidated — gets
                 // the from-scratch reference, so the answer is exact and
                 // deterministic either way (golden-table safe).
                 if (const auto* snap = std::get_if<snapshot_input>(&in);
                     snap && snap->prior_dist) {
                   static const std::vector<wgraph::wedge> kNoEdges;
                   return sssp_incremental(
                       s.g, s.source, *snap->prior_dist,
                       snap->inserted_edges ? *snap->inserted_edges : kNoEdges, ctx);
                 }
                 return sssp_dijkstra(s.g, s.source, ctx);
               });
  r.add_solver({.name = "sssp/relaxed",
                .description = "k-MultiQueue relaxed Dijkstra, exact distances",
                .paradigm = relaxed, .reference = "sssp/dijkstra",
                .phase_ref = "sssp/phase_parallel"},
               [](const sssp_input& s, const context& ctx) {
                 return sssp_relaxed(s.g, s.source, ctx);
               });

  r.add_solver({.name = "huffman/sequential", .description = "two-queue O(n) merge",
                .paradigm = sequential},
               [](const huffman_input& h, const context& ctx) {
                 return huffman_seq(h.freqs, ctx);
               });
  r.add_solver({.name = "huffman/parallel", .description = "relaxed-rank rounds (Theorem 4.7)",
                .paradigm = phase, .reference = "huffman/sequential"},
               [](const huffman_input& h, const context& ctx) {
                 return huffman_parallel(h.freqs, ctx);
               });

  r.add_solver({.name = "knapsack/sequential", .description = "classic O(nW) DP (Eq. 2)",
                .paradigm = sequential},
               [](const knapsack_input& k, const context& ctx) {
                 return knapsack_seq(k.capacity, k.items, ctx);
               });
  r.add_solver({.name = "knapsack/parallel", .description = "w*-window rounds (Theorem 4.3)",
                .paradigm = phase, .reference = "knapsack/sequential"},
               [](const knapsack_input& k, const context& ctx) {
                 return knapsack_parallel(k.capacity, k.items, ctx);
               });

  r.add_solver({.name = "list_ranking/sequential", .description = "O(n) pointer chase",
                .paradigm = sequential},
               [](const list_input& l, const context& ctx) -> solver_value {
                 if (l.weights.empty()) return list_ranking_seq(l.next, ctx);
                 return list_ranking_weighted_seq(l.next, l.weights, ctx);
               });
  r.add_solver({.name = "list_ranking/parallel",
                .description = "phase-parallel contraction/expansion", .paradigm = phase,
                .reference = "list_ranking/sequential"},
               [](const list_input& l, const context& ctx) -> solver_value {
                 if (l.weights.empty()) return list_ranking_parallel(l.next, ctx);
                 return list_ranking_weighted_parallel(l.next, l.weights, ctx);
               });

  r.add_solver({.name = "shuffle/sequential", .description = "sequential Knuth shuffle",
                .paradigm = sequential},
               [](const shuffle_input& s, const context& ctx) {
                 return knuth_shuffle_seq(s.n, s.targets, ctx);
               });
  r.add_solver({.name = "shuffle/parallel", .description = "deterministic-reservation rounds",
                .paradigm = phase, .reference = "shuffle/sequential"},
               [](const shuffle_input& s, const context& ctx) {
                 return knuth_shuffle_parallel(s.n, s.targets, ctx);
               });

  r.add_solver({.name = "whac/sequential",
                .description = "O(n log n) Fenwick DP in rotated coordinates",
                .paradigm = sequential},
               [](const whac_input& w, const context& ctx) {
                 return whac_sequential(w.moles, ctx);
               });
  r.add_solver({.name = "whac/parallel", .description = "dominance-engine wake-ups (Appendix B)",
                .paradigm = phase, .reference = "whac/sequential"},
               [](const whac_input& w, const context& ctx) {
                 return whac_parallel(w.moles, ctx);
               });
}

}  // namespace

registry& registry::instance() {
  static registry* r = [] {
    auto* reg = new registry();
    register_builtins(*reg);
    check_solver_roles(reg->solvers());
    return reg;
  }();
  return *r;
}

}  // namespace pp
