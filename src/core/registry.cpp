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

template <typename T>
const T& expect(const problem_input& in, const std::string& solver, const char* problem) {
  // Snapshots dispatch as the input they pin, so every existing solver
  // accepts session traffic without knowing sessions exist.
  const T* p = std::get_if<T>(&unwrap_snapshot(in));
  if (!p) {
    throw std::invalid_argument("pp::registry: solver '" + solver + "' expects a '" + problem +
                                "' input (wrong problem_input alternative)");
  }
  return *p;
}

// Order-independent fold of a value vector into one scalar, for payloads
// whose natural answer is a whole array (list ranking, shuffle).
template <typename T>
int64_t fold_checksum(const std::vector<T>& xs) {
  uint64_t acc = 0;
  for (size_t i = 0; i < xs.size(); ++i) acc ^= hash64(hash64(i) ^ static_cast<uint64_t>(xs[i]));
  return static_cast<int64_t>(acc >> 1);
}

}  // namespace

phase_stats stats_of(const solver_value& v) {
  return std::visit([](const auto& r) { return r.stats; }, v);
}

int64_t score_of(const solver_value& v) {
  return std::visit(
      [](const auto& r) -> int64_t {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, lis_result>) {
          return r.length;
        } else if constexpr (std::is_same_v<T, activity_result> ||
                             std::is_same_v<T, unweighted_activity_result> ||
                             std::is_same_v<T, knapsack_result> ||
                             std::is_same_v<T, whac_result>) {
          return r.best;
        } else if constexpr (std::is_same_v<T, mis_result>) {
          return static_cast<int64_t>(r.mis_size);
        } else if constexpr (std::is_same_v<T, coloring_result>) {
          return static_cast<int64_t>(r.num_colors);
        } else if constexpr (std::is_same_v<T, matching_result>) {
          return static_cast<int64_t>(r.matching_size);
        } else if constexpr (std::is_same_v<T, sssp_result>) {
          int64_t sum = 0;
          size_t reachable = 0;
          for (auto d : r.dist) {
            if (d < kInfDist) {
              sum = static_cast<int64_t>(static_cast<uint64_t>(sum) + static_cast<uint64_t>(d));
              ++reachable;
            }
          }
          return static_cast<int64_t>(hash64(static_cast<uint64_t>(sum) ^ reachable) >> 1);
        } else if constexpr (std::is_same_v<T, huffman_result>) {
          return static_cast<int64_t>(r.wpl);
        } else if constexpr (std::is_same_v<T, list_ranking_result>) {
          return fold_checksum(r.rank);
        } else if constexpr (std::is_same_v<T, weighted_ranking_result>) {
          return fold_checksum(r.rank);
        } else {  // shuffle_result
          return fold_checksum(r.perm);
        }
      },
      v);
}

std::string summary_of(const solver_value& v) {
  const char* kind = std::visit(
      [](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, lis_result>) return "lis(length)";
        else if constexpr (std::is_same_v<T, activity_result>) return "activity(best)";
        else if constexpr (std::is_same_v<T, unweighted_activity_result>) return "activity(count)";
        else if constexpr (std::is_same_v<T, mis_result>) return "mis(size)";
        else if constexpr (std::is_same_v<T, coloring_result>) return "coloring(colors)";
        else if constexpr (std::is_same_v<T, matching_result>) return "matching(size)";
        else if constexpr (std::is_same_v<T, sssp_result>) return "sssp(dist-checksum)";
        else if constexpr (std::is_same_v<T, huffman_result>) return "huffman(wpl)";
        else if constexpr (std::is_same_v<T, list_ranking_result>) return "list(checksum)";
        else if constexpr (std::is_same_v<T, weighted_ranking_result>) return "list(checksum)";
        else if constexpr (std::is_same_v<T, shuffle_result>) return "shuffle(checksum)";
        else if constexpr (std::is_same_v<T, knapsack_result>) return "knapsack(best)";
        else if constexpr (std::is_same_v<T, whac_result>) return "whac(best)";
        else static_assert(sizeof(T) == 0, "summary_of: result type has no label");
      },
      v);
  phase_stats st = stats_of(v);
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s=%lld rounds=%zu processed=%zu max_frontier=%zu", kind,
                static_cast<long long>(score_of(v)), st.rounds, st.processed, st.max_frontier);
  return buf;
}

void registry::add_solver(solver_info info, solver_fn fn) {
  std::string key = info.name;
  solvers_.insert_or_assign(std::move(key), solver_entry{std::move(info), std::move(fn)});
}

void registry::add_problem(std::string name, std::string description, input_fn make) {
  std::string key = name;
  problems_.insert_or_assign(
      std::move(key), problem_entry{problem_info{std::move(name), std::move(description)},
                                    std::move(make)});
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
  // A snapshot belongs to whatever problem its pinned base input does
  // (`base` is never itself a snapshot, so this recurses at most once).
  if (const auto* snap = std::get_if<snapshot_input>(&in)) return problem_name_of(*snap->base);
  // Index-aligned with the plain problem_input variant alternatives;
  // matches the `problem` strings the built-in solvers register under.
  static constexpr std::string_view kNames[] = {"lis",      "activity", "graph",
                                                "sssp",     "huffman",  "knapsack",
                                                "list",     "shuffle",  "whac"};
  static_assert(std::variant_size_v<problem_input> == sizeof(kNames) / sizeof(kNames[0]) + 1);
  return kNames[in.index()];
}

// ---- Canonicalizers ---------------------------------------------------------
// One per problem_input alternative (pplint: fingerprint-coverage). Each
// emits a self-delimiting word stream: lengths before elements, every
// field in declaration order, no representational freedom left (see the
// per-struct notes in registry.h). Changing any encoding here is a
// fingerprint break: bump kFingerprintVersion and regenerate
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

namespace {

// Shared body of both envelope serializers: the members of one run.
void write_run(json::writer& w, const run_result<solver_value>& r) {
  w.member("solver", r.solver);
  w.member("backend", backend_name(r.backend));
  w.member("workers", static_cast<uint64_t>(r.workers));
  w.member("seed", r.seed);
  w.member("status", run_status_name(r.status));
  w.member("input_fingerprint", r.input_fp.hex());
  w.member("seconds", r.seconds);
  w.member("score", score_of(r.value));
  w.member("summary", summary_of(r.value));
  w.key("stats").begin_object();
  w.member("rounds", static_cast<uint64_t>(r.stats.rounds));
  w.member("processed", static_cast<uint64_t>(r.stats.processed));
  w.member("wakeup_attempts", static_cast<uint64_t>(r.stats.wakeup_attempts));
  w.member("max_frontier", static_cast<uint64_t>(r.stats.max_frontier));
  w.member("substeps", static_cast<uint64_t>(r.stats.substeps));
  w.member("relaxations", static_cast<uint64_t>(r.stats.relaxations));
  w.member("popped", static_cast<uint64_t>(r.stats.popped));
  w.member("wasted", static_cast<uint64_t>(r.stats.wasted));
  w.member("retries", static_cast<uint64_t>(r.stats.retries));
  // Derived (a method, so pplint's json-fields data-member sweep cannot
  // demand it): the paper's wake-ups-per-object ratio, Table 2.
  w.member("avg_wakeups", r.stats.avg_wakeups());
  w.end_object();
}

}  // namespace

std::string to_json(const run_result<solver_value>& r) {
  json::writer w;
  w.begin_object();
  write_run(w, r);
  w.end_object();
  return w.str();
}

std::string to_json(const batch_result<solver_value>& b) {
  json::writer w;
  w.begin_object();
  w.member("solver", b.solver);
  w.member("backend", backend_name(b.backend));
  w.member("workers", static_cast<uint64_t>(b.workers));
  w.member("seed", b.seed);
  w.member("count", static_cast<uint64_t>(b.count()));
  w.member("total_seconds", b.total_seconds);
  w.member("min_seconds", b.min_seconds);
  w.member("mean_seconds", b.mean_seconds);
  w.member("p50_seconds", b.p50_seconds);
  w.member("p95_seconds", b.p95_seconds);
  w.member("p99_seconds", b.p99_seconds);
  w.member("max_seconds", b.max_seconds);
  w.member("total_rounds", static_cast<uint64_t>(b.total_rounds));
  w.key("scores").begin_array();
  for (int64_t s : b.scores) w.value(s);
  w.end_array();
  w.key("items").begin_array();
  for (const auto& item : b.items) {
    w.begin_object();
    write_run(w, item);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

namespace {

// All built-in solvers and problems, registered once on first
// registry::instance() access.
void register_builtins(registry& r) {
  // ---- problems: default random instances ----------------------------------
  r.add_problem("lis", "integer sequence (uniform values in [0, 4n))",
                [](size_t n, uint64_t seed) -> problem_input {
                  random_stream rs(seed);
                  sequence_input in;
                  in.a = tabulate<int64_t>(n, [&](size_t i) {
                    return rs.ith_range(i, 0, static_cast<int64_t>(4 * n) + 1);
                  });
                  return in;
                });
  r.add_problem("activity", "random weighted activities (Sec. 6.1 distribution)",
                [](size_t n, uint64_t seed) -> problem_input {
                  return activity_input{random_activities(n, 1'000'000, 800.0, 200.0, 100, seed)};
                });
  r.add_problem("graph", "rmat graph, ~8n edges, random vertex+edge priorities",
                [](size_t n, uint64_t seed) -> problem_input {
                  graph_input in;
                  in.g = rmat_graph(static_cast<vertex_t>(n), 8 * n, seed);
                  in.vertex_priority = random_permutation(in.g.num_vertices(), hash64(seed) | 1);
                  in.edge_priority = random_permutation(in.g.num_edges(), hash64(seed + 1) | 1);
                  return in;
                });
  r.add_problem("sssp", "random directed weighted graph, ~8n edges, weights in [1, 1024]",
                [](size_t n, uint64_t seed) -> problem_input {
                  sssp_input in;
                  auto g = random_graph(static_cast<vertex_t>(n), 8 * n, seed);
                  in.g = add_weights(g, 1, 1024, hash64(seed + 2));
                  in.source = 0;
                  return in;
                });
  r.add_problem("huffman", "sorted uniform frequencies in [1, 1000]",
                [](size_t n, uint64_t seed) -> problem_input {
                  return huffman_input{uniform_freqs(n, 1000, seed)};
                });
  r.add_problem("knapsack", "capacity n, 64 random items with weights in [25, 100]",
                [](size_t n, uint64_t seed) -> problem_input {
                  knapsack_input in;
                  in.capacity = static_cast<int64_t>(n);
                  in.items = random_items(64, 25, 100, 50, seed);
                  return in;
                });
  r.add_problem("list", "random linked list over n nodes",
                [](size_t n, uint64_t seed) -> problem_input {
                  return list_input{random_list(n, seed), {}};
                });
  r.add_problem("shuffle", "Knuth-shuffle swap targets for n elements",
                [](size_t n, uint64_t seed) -> problem_input {
                  return shuffle_input{n, knuth_targets(n, seed)};
                });
  r.add_problem("whac", "random moles (times in [0, 1e6), positions in [0, n/10))",
                [](size_t n, uint64_t seed) -> problem_input {
                  int64_t p_range = std::max<int64_t>(static_cast<int64_t>(n / 10), 100);
                  return whac_input{random_moles(n, 1'000'000, p_range, seed)};
                });

  // ---- solvers --------------------------------------------------------------
  auto seq = [](const problem_input& in, const char* who) -> const sequence_input& {
    return expect<sequence_input>(in, who, "lis");
  };
  r.add_solver({"lis/sequential", "lis", "classic O(n log n) Fenwick DP"},
               [seq](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& s = seq(in, "lis/sequential");
                 return s.weights.empty() ? lis_sequential(s.a, ctx)
                                          : lis_sequential_weighted(s.a, s.weights, ctx);
               });
  r.add_solver({"lis/parallel", "lis", "phase-parallel LIS (Algorithm 3, 2D range tree)"},
               [seq](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& s = seq(in, "lis/parallel");
                 return s.weights.empty() ? lis_parallel(s.a, ctx)
                                          : lis_parallel_weighted(s.a, s.weights, ctx);
               });

  auto act = [](const problem_input& in, const char* who) -> const activity_input& {
    return expect<activity_input>(in, who, "activity");
  };
  r.add_solver({"activity/sequential", "activity", "classic O(n log n) DP (Eq. 1)"},
               [act](const problem_input& in, const context& ctx) -> solver_value {
                 return activity_select_seq(act(in, "activity/sequential").acts, ctx);
               });
  r.add_solver({"activity/type1", "activity", "Algorithm 2: range-query frontiers on flat arrays"},
               [act](const problem_input& in, const context& ctx) -> solver_value {
                 return activity_select_type1(act(in, "activity/type1").acts, ctx);
               });
  r.add_solver({"activity/type2", "activity", "Sec. 5.1 pivot wake-ups"},
               [act](const problem_input& in, const context& ctx) -> solver_value {
                 return activity_select_type2(act(in, "activity/type2").acts, ctx);
               });
  r.add_solver({"activity_unweighted/sequential", "activity", "earliest-end greedy chain"},
               [act](const problem_input& in, const context& ctx) -> solver_value {
                 return activity_unweighted_greedy_seq(
                     act(in, "activity_unweighted/sequential").acts, ctx);
               });
  r.add_solver({"activity_unweighted/parallel", "activity", "pivot forest + pointer jumping"},
               [act](const problem_input& in, const context& ctx) -> solver_value {
                 return activity_unweighted_parallel(act(in, "activity_unweighted/parallel").acts,
                                                     ctx);
               });
  r.add_solver({"activity_unweighted/euler", "activity",
                "pivot forest + Euler-tour depths (Theorem 5.3 route)"},
               [act](const problem_input& in, const context& ctx) -> solver_value {
                 return activity_unweighted_euler(act(in, "activity_unweighted/euler").acts, ctx);
               });

  auto gin = [](const problem_input& in, const char* who) -> const graph_input& {
    return expect<graph_input>(in, who, "graph");
  };
  r.add_solver({"mis/sequential", "graph", "greedy MIS by priority order"},
               [gin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& g = gin(in, "mis/sequential");
                 return mis_sequential(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({"mis/rounds", "graph", "deterministic-reservation rounds [BFGS12]"},
               [gin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& g = gin(in, "mis/rounds");
                 return mis_rounds(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({"mis/tas", "graph", "Algorithm 4: asynchronous TAS-tree wake-ups"},
               [gin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& g = gin(in, "mis/tas");
                 return mis_tas(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({"coloring/sequential", "graph", "greedy coloring, Jones-Plassmann order"},
               [gin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& g = gin(in, "coloring/sequential");
                 return coloring_sequential(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({"coloring/tas", "graph", "TAS-tree wake-up greedy coloring"},
               [gin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& g = gin(in, "coloring/tas");
                 return coloring_tas(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({"matching/sequential", "graph", "greedy matching by edge priority"},
               [gin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& g = gin(in, "matching/sequential");
                 return matching_sequential(g.g, g.edge_priority, ctx);
               });
  r.add_solver({"matching/rounds", "graph", "round-synchronized greedy matching"},
               [gin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& g = gin(in, "matching/rounds");
                 return matching_rounds(g.g, g.edge_priority, ctx);
               });

  // Relaxed k-MultiQueue paradigm (parallel/multiqueue.h). Each description
  // names its phase-mode determinism reference ("phase ref: X") — the
  // pplint relaxed-coverage rule checks the marker, and the referenced
  // solver is what tests/checkers.h validates these against structurally.
  r.add_solver({"mis/relaxed", "graph",
                "k-MultiQueue asynchronous greedy MIS (phase ref: mis/rounds)"},
               [gin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& g = gin(in, "mis/relaxed");
                 return mis_relaxed(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({"coloring/relaxed", "graph",
                "k-MultiQueue asynchronous greedy coloring (phase ref: coloring/tas)"},
               [gin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& g = gin(in, "coloring/relaxed");
                 return coloring_relaxed(g.g, g.vertex_priority, ctx);
               });
  r.add_solver({"matching/relaxed", "graph",
                "k-MultiQueue asynchronous greedy matching (phase ref: matching/rounds)"},
               [gin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& g = gin(in, "matching/relaxed");
                 return matching_relaxed(g.g, g.edge_priority, ctx);
               });

  auto sin = [](const problem_input& in, const char* who) -> const sssp_input& {
    return expect<sssp_input>(in, who, "sssp");
  };
  r.add_solver({"sssp/dijkstra", "sssp", "sequential binary-heap Dijkstra"},
               [sin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& s = sin(in, "sssp/dijkstra");
                 return sssp_dijkstra(s.g, s.source, ctx);
               });
  r.add_solver({"sssp/bellman_ford", "sssp", "frontier-based parallel Bellman-Ford"},
               [sin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& s = sin(in, "sssp/bellman_ford");
                 return sssp_bellman_ford(s.g, s.source, ctx);
               });
  r.add_solver({"sssp/delta_stepping", "sssp", "Meyer-Sanders buckets (delta from input)"},
               [sin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& s = sin(in, "sssp/delta_stepping");
                 uint32_t delta = s.delta != 0 ? s.delta : s.g.min_weight();
                 return sssp_delta_stepping(s.g, s.source, delta, ctx);
               });
  r.add_solver({"sssp/phase_parallel", "sssp", "Delta-stepping with Delta = w* (Theorem 4.5)"},
               [sin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& s = sin(in, "sssp/phase_parallel");
                 return sssp_phase_parallel(s.g, s.source, ctx);
               });
  r.add_solver({"sssp/crauser", "sssp", "Crauser IN/OUT-criterion rounds (Sec. 4.3)"},
               [sin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& s = sin(in, "sssp/crauser");
                 return sssp_crauser(s.g, s.source, /*use_in_criterion=*/true, ctx);
               });
  r.add_solver({"sssp/incremental", "sssp",
                "delta re-solve over session snapshots: seeds Dijkstra from the prior "
                "version's distances + inserted edges, exact (from-scratch ref: "
                "sssp/dijkstra)"},
               [sin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& s = sin(in, "sssp/incremental");
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
  r.add_solver({"sssp/relaxed", "sssp",
                "k-MultiQueue relaxed Dijkstra, exact distances (phase ref: "
                "sssp/phase_parallel)"},
               [sin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& s = sin(in, "sssp/relaxed");
                 return sssp_relaxed(s.g, s.source, ctx);
               });

  auto hin = [](const problem_input& in, const char* who) -> const huffman_input& {
    return expect<huffman_input>(in, who, "huffman");
  };
  r.add_solver({"huffman/sequential", "huffman", "two-queue O(n) merge"},
               [hin](const problem_input& in, const context& ctx) -> solver_value {
                 return huffman_seq(hin(in, "huffman/sequential").freqs, ctx);
               });
  r.add_solver({"huffman/parallel", "huffman", "relaxed-rank rounds (Theorem 4.7)"},
               [hin](const problem_input& in, const context& ctx) -> solver_value {
                 return huffman_parallel(hin(in, "huffman/parallel").freqs, ctx);
               });

  auto kin = [](const problem_input& in, const char* who) -> const knapsack_input& {
    return expect<knapsack_input>(in, who, "knapsack");
  };
  r.add_solver({"knapsack/sequential", "knapsack", "classic O(nW) DP (Eq. 2)"},
               [kin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& k = kin(in, "knapsack/sequential");
                 return knapsack_seq(k.capacity, k.items, ctx);
               });
  r.add_solver({"knapsack/parallel", "knapsack", "w*-window rounds (Theorem 4.3)"},
               [kin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& k = kin(in, "knapsack/parallel");
                 return knapsack_parallel(k.capacity, k.items, ctx);
               });

  auto lin = [](const problem_input& in, const char* who) -> const list_input& {
    return expect<list_input>(in, who, "list");
  };
  r.add_solver({"list_ranking/sequential", "list", "O(n) pointer chase"},
               [lin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& l = lin(in, "list_ranking/sequential");
                 if (l.weights.empty()) return list_ranking_seq(l.next, ctx);
                 return list_ranking_weighted_seq(l.next, l.weights, ctx);
               });
  r.add_solver({"list_ranking/parallel", "list", "phase-parallel contraction/expansion"},
               [lin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& l = lin(in, "list_ranking/parallel");
                 if (l.weights.empty()) return list_ranking_parallel(l.next, ctx);
                 return list_ranking_weighted_parallel(l.next, l.weights, ctx);
               });

  auto shin = [](const problem_input& in, const char* who) -> const shuffle_input& {
    return expect<shuffle_input>(in, who, "shuffle");
  };
  r.add_solver({"shuffle/sequential", "shuffle", "sequential Knuth shuffle"},
               [shin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& s = shin(in, "shuffle/sequential");
                 return knuth_shuffle_seq(s.n, s.targets, ctx);
               });
  r.add_solver({"shuffle/parallel", "shuffle", "deterministic-reservation rounds"},
               [shin](const problem_input& in, const context& ctx) -> solver_value {
                 const auto& s = shin(in, "shuffle/parallel");
                 return knuth_shuffle_parallel(s.n, s.targets, ctx);
               });

  auto win = [](const problem_input& in, const char* who) -> const whac_input& {
    return expect<whac_input>(in, who, "whac");
  };
  r.add_solver({"whac/sequential", "whac", "O(n log n) Fenwick DP in rotated coordinates"},
               [win](const problem_input& in, const context& ctx) -> solver_value {
                 return whac_sequential(win(in, "whac/sequential").moles, ctx);
               });
  r.add_solver({"whac/parallel", "whac", "dominance-engine wake-ups (Appendix B)"},
               [win](const problem_input& in, const context& ctx) -> solver_value {
                 return whac_parallel(win(in, "whac/parallel").moles, ctx);
               });
}

}  // namespace

registry& registry::instance() {
  static registry* r = [] {
    auto* reg = new registry();
    register_builtins(*reg);
    return reg;
  }();
  return *r;
}

}  // namespace pp
