// ppdriver: registry-driven CLI for every solver in the library.
//
//   ppdriver list [--json]             # all solvers (name, problem, paradigm,
//                                      # relax knob, phase ref, description)
//   ppdriver problems                  # all problems + default input descriptors
//   ppdriver run <solver> [options]    # generate an input, run, print the envelope
//   ppdriver batch <solver> [options]  # generate K inputs, run them as one batch
//   ppdriver golden [--n N] [--seed S] # print the golden-result table rows
//                                      # (one per solver) for tests/golden_results.inc
//
// shared options:
//   --n N              input size (default 100000)
//   --seed S           base seed (default 1): input i is built from
//                      derive_seed(S, i) for batch, S for run; execution
//                      seeds follow the same rule
//   --backend B        native | sequential   (default: process default)
//   --workers W        worker count (0 = backend default)
//   --grain G          parallel_for grain (0 = auto)
//   --pivot P          rightmost | random   (Type-2 pivot policy)
//   --relax-k K        k-MultiQueue relaxation factor (relaxed solvers only)
//   --json             print the machine-readable envelope instead of text
//
// run options:
//   --repeats R        run R times through run_batch (one pool lease, same
//                      input + seed each repeat); every repeat's envelope
//                      survives into --json output, which is always the
//                      batch envelope (count == R, even for R = 1)
//   --trace PATH       enable the in-process tracer (core/trace.h) for the
//                      run and dump a Chrome trace-event JSON file to PATH
//                      (load it in Perfetto / chrome://tracing)
//
// batch options:
//   --count K          number of inputs in the batch (default 8)
//   --order O          as_given | shuffled   (execution order; results are
//                      identical either way)
//
// Examples:
//   ppdriver run lis/parallel --n 1000000 --backend native --workers 8
//   ppdriver batch lis/parallel --count 8 --n 20000 --json
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "core/json.h"
#include "core/registry.h"
#include "core/trace.h"

namespace {

constexpr long long kMaxCount = std::numeric_limits<long long>::max();

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s list [--json] | problems\n"
               "       %s run <solver>   [--n N] [--seed S] [--backend B] [--workers W]\n"
               "                         [--grain G] [--pivot rightmost|random] [--relax-k K]\n"
               "                         [--repeats R] [--trace PATH] [--json]\n"
               "       %s batch <solver> [--count K] [--n N] [--seed S] [--backend B]\n"
               "                         [--workers W] [--grain G] [--pivot rightmost|random]\n"
               "                         [--relax-k K] [--order as_given|shuffled] [--json]\n"
               "       %s golden         [--n N] [--seed S]\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

int cmd_list(bool json) {
  auto& reg = pp::registry::instance();
  if (json) {
    pp::json::writer w;
    w.begin_object().key("solvers").begin_array();
    for (const auto& s : reg.solvers()) {
      w.begin_object();
      w.member("name", s.name);
      w.member("problem", s.problem);
      w.member("paradigm", pp::paradigm_name(s.paradigm));
      w.member("relax_knob", s.paradigm == pp::solver_paradigm::relaxed);
      w.member("phase_ref", s.phase_ref);
      w.member("description", s.description);
      w.end_object();
    }
    w.end_array().end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  // paradigm: sequential | phase | relaxed (see core/registry.h); relax-k
  // marks the solvers that honor the --relax-k knob.
  std::printf("%-32s %-10s %-10s %-7s %s\n", "solver", "problem", "paradigm", "relax-k",
              "description");
  for (const auto& s : reg.solvers())
    std::printf("%-32s %-10s %-10s %-7s %s\n", s.name.c_str(), s.problem.c_str(),
                pp::paradigm_name(s.paradigm),
                s.paradigm == pp::solver_paradigm::relaxed ? "yes" : "-",
                s.description.c_str());
  return 0;
}

int cmd_problems() {
  std::printf("%-10s %s\n", "problem", "default input");
  for (const auto& p : pp::registry::instance().problems())
    std::printf("%-10s %s\n", p.name.c_str(), p.description.c_str());
  return 0;
}

// Options shared by `run` and `batch`.
struct cli_options {
  size_t n = 100'000;
  int repeats = 1;         // run only
  std::string trace_path;  // run only: dump Chrome trace JSON here
  size_t count = 8;        // batch only
  bool json = false;
  pp::batch_options::item_order order = pp::batch_options::item_order::as_given;
  pp::context ctx = pp::default_context();
};

// Parse argv[3..] into `opt`; `batch_mode` gates the per-command flags.
// Returns 0 on success, else the exit code.
int parse_options(int argc, char** argv, bool batch_mode, cli_options& opt) {
  for (int i = 3; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--n") == 0) {
      opt.n = static_cast<size_t>(parse_int(argv[0], "--n", need("--n"), 0, kMaxCount));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.ctx.seed = parse_u64(argv[0], "--seed", need("--seed"));
    } else if (std::strcmp(argv[i], "--backend") == 0) {
      const char* b = need("--backend");
      auto kind = pp::parse_backend(b);
      if (!kind) {
        std::fprintf(stderr, "%s: unknown backend '%s'\n", argv[0], b);
        return 2;
      }
      opt.ctx.backend = *kind;
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      // 0 = the backend's default width.
      opt.ctx.workers = static_cast<unsigned>(parse_int(
          argv[0], "--workers", need("--workers"), 0, std::numeric_limits<unsigned>::max()));
    } else if (std::strcmp(argv[i], "--grain") == 0) {
      opt.ctx.grain =
          static_cast<size_t>(parse_int(argv[0], "--grain", need("--grain"), 0, kMaxCount));
    } else if (std::strcmp(argv[i], "--pivot") == 0) {
      const char* p = need("--pivot");
      if (std::strcmp(p, "rightmost") == 0) {
        opt.ctx.pivot = pp::pivot_policy::rightmost;
      } else if (std::strcmp(p, "random") == 0 || std::strcmp(p, "uniform_random") == 0) {
        opt.ctx.pivot = pp::pivot_policy::uniform_random;
      } else {
        std::fprintf(stderr, "%s: unknown pivot policy '%s'\n", argv[0], p);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--relax-k") == 0) {
      opt.ctx.relax_k = static_cast<unsigned>(parse_int(
          argv[0], "--relax-k", need("--relax-k"), 1, std::numeric_limits<unsigned>::max()));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json = true;
    } else if (!batch_mode && std::strcmp(argv[i], "--repeats") == 0) {
      // Values below 1 clamp to one run.
      opt.repeats = std::max(1, static_cast<int>(parse_int(argv[0], "--repeats", need("--repeats"),
                                                           std::numeric_limits<int>::min(),
                                                           std::numeric_limits<int>::max())));
    } else if (!batch_mode && std::strcmp(argv[i], "--trace") == 0) {
      opt.trace_path = need("--trace");
      if (opt.trace_path.empty()) {
        std::fprintf(stderr, "%s: --trace needs a non-empty path\n", argv[0]);
        return 2;
      }
    } else if (batch_mode && std::strcmp(argv[i], "--count") == 0) {
      opt.count = std::max<size_t>(
          1, static_cast<size_t>(parse_int(argv[0], "--count", need("--count"), 0, kMaxCount)));
    } else if (batch_mode && std::strcmp(argv[i], "--order") == 0) {
      const char* o = need("--order");
      if (std::strcmp(o, "as_given") == 0) {
        opt.order = pp::batch_options::item_order::as_given;
      } else if (std::strcmp(o, "shuffled") == 0) {
        opt.order = pp::batch_options::item_order::shuffled;
      } else {
        std::fprintf(stderr, "%s: unknown order '%s'\n", argv[0], o);
        return 2;
      }
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], argv[i]);
      return 2;
    }
  }
  return 0;
}

// Resolve a solver name to its problem, or exit with a hint.
std::string problem_of(const char* argv0, const std::string& solver) {
  auto& reg = pp::registry::instance();
  if (!reg.contains(solver)) {
    std::fprintf(stderr, "%s: unknown solver '%s' (try '%s list')\n", argv0, solver.c_str(),
                 argv0);
    std::exit(1);
  }
  for (const auto& s : reg.solvers())
    if (s.name == solver) return s.problem;
  return {};
}

void print_envelope_text(const pp::run_result<pp::solver_value>& r, const std::string& problem,
                         size_t n, const pp::context& ctx) {
  std::printf("solver   = %s\n", r.solver.c_str());
  std::printf("problem  = %s (n = %zu, seed = %llu)\n", problem.c_str(), n,
              static_cast<unsigned long long>(ctx.seed));
  // r.workers is the width the run *actually* executed on (pool lease /
  // omp num_threads), not a pre-run guess from the context.
  std::printf("backend  = %s (workers = %u, grain = %zu, pivot = %s)\n",
              std::string(pp::backend_name(r.backend)).c_str(), r.workers, ctx.grain,
              pp::pivot_policy_name(ctx.pivot));
  std::printf("input_fp = %s\n", r.input_fp.hex().c_str());
  std::printf("result   = %s\n", pp::summary_of(r.value).c_str());
  std::printf("score    = %lld\n", static_cast<long long>(pp::score_of(r.value)));
}

void print_stats_text(const pp::phase_stats& st) {
  std::printf("stats    = rounds %zu, processed %zu, max_frontier %zu, wakeups %zu, "
              "substeps %zu, relaxations %zu\n",
              st.rounds, st.processed, st.max_frontier, st.wakeup_attempts, st.substeps,
              st.relaxations);
  if (st.popped > 0) {
    // Relaxed-mode scheduler counters (zero for phase/sequential runs).
    std::printf("mq       = popped %zu, wasted %zu, retries %zu (relaxation cost %.4f)\n",
                st.popped, st.wasted, st.retries,
                static_cast<double>(st.wasted) / static_cast<double>(st.popped));
  }
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  std::string solver = argv[2];
  cli_options opt;
  if (int rc = parse_options(argc, argv, /*batch_mode=*/false, opt); rc != 0) return rc;

  std::string problem = problem_of(argv[0], solver);
  auto input = pp::registry::instance().make_input(problem, opt.n, opt.ctx.seed);

  // Repeats flow through run_batch with seed derivation off: one pool
  // lease for all repeats, each executing under the identical context, and
  // every repeat's envelope kept (not just min/mean scalars).
  pp::batch_options bopts;
  bopts.derive_seeds = false;
  const bool tracing = !opt.trace_path.empty();
  if (tracing) {
    pp::trace::clear();
    pp::trace::set_enabled(true);
  }
  auto batch = pp::registry::run_batch(solver, input, static_cast<size_t>(opt.repeats), opt.ctx,
                                       bopts);
  if (tracing) {
    pp::trace::set_enabled(false);
    if (!pp::trace::write_chrome_json(opt.trace_path)) {
      std::fprintf(stderr, "%s: cannot write trace file '%s'\n", argv[0], opt.trace_path.c_str());
      return 1;
    }
  }

  if (opt.json) {
    if (tracing)
      std::fprintf(stderr, "trace: %zu records -> %s\n", pp::trace::record_count(),
                   opt.trace_path.c_str());
    // Always the batch envelope (count == repeats), so consumers get one
    // stable schema whether R is 1 or 100.
    std::printf("%s\n", pp::to_json(batch).c_str());
    return 0;
  }
  const auto& last = batch.items.back();
  print_envelope_text(last, problem, opt.n, opt.ctx);
  if (opt.repeats > 1) {
    std::printf("time     = %.6f s min, %.6f s mean over %d runs\n", batch.min_seconds,
                batch.mean_seconds, opt.repeats);
  } else {
    std::printf("time     = %.6f s\n", last.seconds);
  }
  print_stats_text(last.stats);
  if (tracing)
    std::printf("trace    = %s (%zu records)\n", opt.trace_path.c_str(),
                pp::trace::record_count());
  return 0;
}

int cmd_batch(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  std::string solver = argv[2];
  cli_options opt;
  opt.n = 20'000;  // batches are many inputs; default each one smaller
  if (int rc = parse_options(argc, argv, /*batch_mode=*/true, opt); rc != 0) return rc;

  std::string problem = problem_of(argv[0], solver);
  auto& reg = pp::registry::instance();

  // K independent instances of the problem, each built from the seed its
  // item will also execute under — one rule for the whole batch.
  std::vector<pp::problem_input> inputs;
  inputs.reserve(opt.count);
  for (size_t i = 0; i < opt.count; ++i)
    inputs.push_back(reg.make_input(problem, opt.n, pp::derive_seed(opt.ctx.seed, i)));

  pp::batch_options bopts;
  bopts.order = opt.order;
  auto batch = pp::registry::run_batch(solver, inputs, opt.ctx, bopts);

  if (opt.json) {
    std::printf("%s\n", pp::to_json(batch).c_str());
    return 0;
  }
  std::printf("solver   = %s\n", batch.solver.c_str());
  std::printf("problem  = %s (count = %zu, n = %zu each, base seed = %llu, order = %s)\n",
              problem.c_str(), batch.count(), opt.n,
              static_cast<unsigned long long>(opt.ctx.seed), pp::item_order_name(opt.order));
  std::printf("backend  = %s (workers = %u, grain = %zu, pivot = %s)\n",
              std::string(pp::backend_name(batch.backend)).c_str(), batch.workers, opt.ctx.grain,
              pp::pivot_policy_name(opt.ctx.pivot));
  std::printf("time     = %.6f s total, %.6f s min, %.6f s mean, %.6f s p50, %.6f s p95, "
              "%.6f s p99, %.6f s max\n",
              batch.total_seconds, batch.min_seconds, batch.mean_seconds, batch.p50_seconds,
              batch.p95_seconds, batch.p99_seconds, batch.max_seconds);
  std::printf("rounds   = %zu total\n", batch.total_rounds);
  for (size_t i = 0; i < batch.count(); ++i) {
    std::printf("item %-4zu seed=%llu score=%lld seconds=%.6f rounds=%zu\n", i,
                static_cast<unsigned long long>(batch.items[i].seed),
                static_cast<long long>(batch.scores[i]), batch.items[i].seconds,
                batch.items[i].stats.rounds);
  }
  return 0;
}

// The committed fingerprint-stability table. For every registered solver:
// build the problem's default input (n, seed), fingerprint it, solve it
// sequentially, and print one initializer row for tests/golden_results.inc.
// tests/test_fingerprint.cpp rebuilds the same inputs and verifies both the
// fingerprint hex (canonical-bytes stability) and the score (the paper's
// determinism property: the answer depends on the input and seed only, not
// the backend or schedule). Sequential execution keeps generation cheap and
// machine-independent; any backend must reproduce the same scores.
int cmd_golden(int argc, char** argv) {
  size_t n = 256;
  uint64_t seed = 42;
  for (int i = 2; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--n") == 0) {
      n = static_cast<size_t>(parse_int(argv[0], "--n", need("--n"), 0, kMaxCount));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = parse_u64(argv[0], "--seed", need("--seed"));
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], argv[i]);
      return 2;
    }
  }
  auto& reg = pp::registry::instance();
  std::printf("// Golden (solver, n, seed, input fingerprint, score) rows — included by\n");
  std::printf("// tests/test_fingerprint.cpp. Any row changing means either the canonical\n");
  std::printf("// serialization changed (bump kFingerprintVersion and say why) or a solver's\n");
  std::printf("// answer drifted (a correctness regression).\n");
  std::printf("// Regenerate: ppdriver golden --n %zu --seed %llu > tests/golden_results.inc\n",
              n, static_cast<unsigned long long>(seed));
  for (const auto& s : reg.solvers()) {
    // Relaxed-paradigm solvers promise structural validity, not
    // bit-stability — tests/test_fingerprint.cpp asserts they are absent.
    if (s.paradigm == pp::solver_paradigm::relaxed) continue;
    auto input = reg.make_input(s.problem, n, seed);
    auto fp = pp::fingerprint_of(input);
    auto res = pp::registry::run(
        s.name, input,
        pp::context{}.with_backend(pp::backend_kind::sequential).with_seed(seed));
    std::printf("{\"%s\", %zu, %lluull, \"%s\", %lld},\n", s.name.c_str(), n,
                static_cast<unsigned long long>(seed), fp.hex().c_str(),
                static_cast<long long>(pp::score_of(res.value)));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  try {
    if (std::strcmp(argv[1], "list") == 0)
      return cmd_list(argc > 2 && std::strcmp(argv[2], "--json") == 0);
    if (std::strcmp(argv[1], "problems") == 0) return cmd_problems();
    if (std::strcmp(argv[1], "run") == 0) return cmd_run(argc, argv);
    if (std::strcmp(argv[1], "batch") == 0) return cmd_batch(argc, argv);
    if (std::strcmp(argv[1], "golden") == 0) return cmd_golden(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
  return usage(argv[0]);
}
