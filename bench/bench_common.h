// Shared helpers for the paper-reproduction benchmark binaries.
//
// Conventions:
//  * every binary prints one table per paper figure/table, with the same
//    rows/series the paper reports;
//  * REPRO_SCALE (float env var, default 1) multiplies the default input
//    sizes, so the same binaries run at laptop scale and at paper scale;
//  * REPRO_REPEATS (int env var, default 1) repeats timed sections and
//    reports the minimum;
//  * PP_BACKEND / PP_WORKERS / PP_SEED / PP_GRAIN configure the execution
//    context (see env_context()) without recompiling;
//  * "self-speedup" is measured by re-running the identical parallel code
//    under the sequential backend (1 worker), as the paper does with
//    1-core runs.
//  * benches with a committed baseline emit a --json envelope that embeds
//    `deterministic_top` / `deterministic_row` key lists, so the generic
//    checker (tools/bench_baseline_check.py) knows which fields are exact
//    across machines (counters, checksums, config echoes) and which are
//    environment noise (wall-clock) without a per-bench CI script.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>

#include "../tools/cli_flags.h"
#include "core/context.h"
#include "core/json.h"
#include "parallel/api.h"

namespace bench {

// True iff `flag` appears anywhere in argv (exact match).
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

// Open a baseline-comparable JSON envelope: the bench name plus the two
// key lists tools/bench_baseline_check.py drives the comparison from.
// `deterministic_top` names top-level members that must match the committed
// baseline exactly; `deterministic_row` names per-row members (of the
// "rows" array) that must. Everything else — wall-clock, rates — is
// reported but never compared. The caller appends its own members/rows and
// closes the object.
inline pp::json::writer& begin_envelope(pp::json::writer& w, const char* bench_name,
                                        std::initializer_list<const char*> deterministic_top,
                                        std::initializer_list<const char*> deterministic_row) {
  w.begin_object();
  w.member("bench", bench_name);
  w.key("deterministic_top").begin_array();
  for (const char* k : deterministic_top) w.value(k);
  w.end_array();
  w.key("deterministic_row").begin_array();
  for (const char* k : deterministic_row) w.value(k);
  w.end_array();
  return w;
}

inline double scale() {
  if (const char* s = std::getenv("REPRO_SCALE")) return std::atof(s);
  return 1.0;
}

inline size_t scaled(size_t n) { return static_cast<size_t>(static_cast<double>(n) * scale()); }

inline int repeats() {
  if (const char* s = std::getenv("REPRO_REPEATS")) return std::max(1, std::atoi(s));
  return 1;
}

// The execution context for this benchmark process: the library defaults,
// overridden by PP_BACKEND / PP_WORKERS / PP_SEED / PP_GRAIN env vars. An
// unknown backend or a malformed number exits 2, as the CLIs' flags do.
inline pp::context env_context() {
  pp::context c = pp::default_context();
  if (const char* b = std::getenv("PP_BACKEND")) {
    auto kind = pp::parse_backend(b);
    if (!kind) {
      std::fprintf(stderr, "bench: PP_BACKEND: unknown backend '%s'\n", b);
      std::exit(2);
    }
    c.backend = *kind;
  }
  if (const char* w = std::getenv("PP_WORKERS"))
    c.workers = static_cast<unsigned>(
        parse_int("bench", "PP_WORKERS", w, 0, std::numeric_limits<unsigned>::max()));
  if (const char* s = std::getenv("PP_SEED")) c.seed = parse_u64("bench", "PP_SEED", s);
  if (const char* g = std::getenv("PP_GRAIN"))
    c.grain = static_cast<size_t>(
        parse_int("bench", "PP_GRAIN", g, 0, std::numeric_limits<long long>::max()));
  return c;
}

// Wall-clock seconds of f(), min over repeats().
template <typename F>
double time_s(F f) {
  double best = 1e100;
  for (int r = 0; r < repeats(); ++r) {
    auto t0 = std::chrono::steady_clock::now();
    f();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

inline void banner(const char* what, const char* paper_ref,
                   const pp::context& ctx = pp::current_context()) {
  std::printf("=============================================================\n");
  std::printf("%s\n", what);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("backend=%s workers=%u seed=%llu scale=%.3g repeats=%d\n",
              std::string(pp::backend_name(ctx.backend)).c_str(), pp::num_workers(ctx),
              static_cast<unsigned long long>(ctx.seed), scale(), repeats());
  std::printf("=============================================================\n");
}

}  // namespace bench
