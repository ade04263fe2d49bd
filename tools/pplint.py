#!/usr/bin/env python3
"""pplint — project-invariant checker for the pp tree.

Static rules that the compilers and sanitizers cannot express but the
codebase depends on for correctness and reproducibility:

  cancel-in-parallel   cancel_point() must never appear lexically inside a
                       parallel_for(...) / par_do(...) argument list: a throw
                       on a pool worker escapes its job and terminates, a
                       throw between fork and join dangles references, and
                       a thread running a stolen half has no token
                       installed, so the check never fires there (see
                       src/core/cancel.h).
  banned-clock-rand    src/ and tools/ must not use std::rand, srand, or
                       std::chrono::system_clock. Randomness flows through
                       pp::hash64/derive_seed (reproducible); timing uses
                       steady_clock (monotonic) only.
  defaulted-seed       No function/constructor parameter named `seed` may
                       have a default argument. A silently-defaulted seed is
                       a hidden global that breaks reproducibility audits.
  metrics-coverage     Every metric name literal in the catalog list of
                       src/core/metrics.h (the single place names may
                       live) must appear in tests/test_trace.cpp (the
                       Prometheus golden) and in README.md (the metrics
                       catalog). A counter that ships unrendered-in-docs or
                       untested is invisible twice over; this rule makes
                       adding a metric force both the golden and the
                       catalog forward in the same commit.

The JSON records need no rule: each struct body and its writer expand one
field list (src/core/fields.h). Nor does the solver roster: each solver
declares its paradigm and reference at registration, check_solver_roles
(src/core/registry.h) rejects a broken role when the registry is built,
and the tests enumerate the registry. A problem_input alternative without
a canonicalizer does not compile.

Usage:
  tools/pplint.py [--root DIR]     lint the tree (exit 1 on violations)
  tools/pplint.py --self-test      prove each rule fires on a synthetic
                                   violation and stays quiet on clean code

Runs as ctest `test_pplint` / `test_pplint_selftest` and as a CI job.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Source preprocessing: strip comments and string/char literals so rules
# never fire on prose or quoted text. Newlines inside stripped regions are
# preserved so reported line numbers stay exact.


def strip_comments_and_strings(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
            out.append(quote + quote)  # keep a token so `("")` stays balanced
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def cxx_files(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _dirnames, filenames in sorted(os.walk(base)):
            for name in sorted(filenames):
                if name.endswith((".h", ".hpp", ".cpp", ".cc")):
                    yield os.path.join(dirpath, name)


class Violation:
    def __init__(self, path, line, rule, msg):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule, self.msg)


# --------------------------------------------------------------------------
# Rule: cancel-in-parallel


def check_cancel_in_parallel(path, text):
    """Flag cancel_point() lexically inside a parallel_for/par_do call's
    argument list (which is where the loop-body/task lambdas live)."""
    out = []
    for m in re.finditer(r"\b(?:parallel_for|par_do)\s*\(", text):
        depth = 1
        i = m.end()
        start = i
        while i < len(text) and depth > 0:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        span = text[start:i]
        c = re.search(r"\bcancel_point\s*\(", span)
        if c:
            out.append(
                Violation(
                    path,
                    line_of(text, start + c.start()),
                    "cancel-in-parallel",
                    "cancel_point() inside a parallel region: a throw here "
                    "escapes a pool worker or dangles a forked job "
                    "(src/core/cancel.h contract)",
                )
            )
    return out


# --------------------------------------------------------------------------
# Rule: banned-clock-rand

BANNED_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*rand\b"), "std::rand: use pp::hash64 / pp::random_stream"),
    (re.compile(r"(?<![\w:])srand\s*\("), "srand: use seeded pp::random_stream"),
    (
        re.compile(r"\bsystem_clock\b"),
        "system_clock: wall-clock time is not monotonic; use steady_clock",
    ),
]


def check_banned_clock_rand(path, text):
    out = []
    for pat, why in BANNED_PATTERNS:
        for m in pat.finditer(text):
            out.append(Violation(path, line_of(text, m.start()), "banned-clock-rand", why))
    return out


# --------------------------------------------------------------------------
# Rule: defaulted-seed


def check_defaulted_seed(path, text):
    """Flag `seed = <default>` where the innermost enclosing bracket is '(',
    i.e. a defaulted function/constructor parameter. Member initializers
    (innermost '{') and assignments at statement scope do not match."""
    out = []
    for m in re.finditer(r"\bseed\s*=(?!=)", text):
        # Walk backwards to the nearest unmatched opener.
        depth = 0
        innermost = None
        for ch in reversed(text[: m.start()]):
            if ch in ")}]":
                depth += 1
            elif ch in "({[":
                if depth == 0:
                    innermost = ch
                    break
                depth -= 1
        if innermost == "(":
            out.append(
                Violation(
                    path,
                    line_of(text, m.start()),
                    "defaulted-seed",
                    "parameter `seed` has a default argument; seeds must be "
                    "explicit at every call site",
                )
            )
    return out


# --------------------------------------------------------------------------
# Rule: metrics-coverage


def check_metrics_coverage(metrics_path, consumer_paths):
    """Every registered metric name (the "pp_..." literal after the member
    in each catalog list entry — src/core/metrics.h keeps them nowhere
    else) must appear verbatim in every consumer: the test golden and the
    README catalog."""
    out = []
    with open(metrics_path, encoding="utf-8") as f:
        raw = f.read()
    names = sorted(set(re.findall(r'\w\s*,\s*"(pp_[a-z0-9_]+)"\s*,', raw)))
    if not names:
        out.append(
            Violation(
                metrics_path,
                1,
                "metrics-coverage",
                "no metric name literals ('member, \"pp_...\",') found; the catalog "
                "list changed its spelling and the rule lost its anchor",
            )
        )
        return out
    for path in consumer_paths:
        if not os.path.exists(path):
            out.append(
                Violation(
                    metrics_path,
                    1,
                    "metrics-coverage",
                    "metric consumer %s does not exist" % os.path.basename(path),
                )
            )
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for name in names:
            if name not in text:
                out.append(
                    Violation(
                        path,
                        1,
                        "metrics-coverage",
                        "metric '%s' (listed in src/core/metrics.h) is "
                        "missing from %s — every metric must be in the test "
                        "golden and the README catalog" % (name, os.path.basename(path)),
                    )
                )
    return out


# --------------------------------------------------------------------------
# Driver

def lint_tree(root):
    violations = []
    for path in cxx_files(root, ["src", "tools", "examples", "bench"]):
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        text = strip_comments_and_strings(raw)
        violations += check_cancel_in_parallel(path, text)
        violations += check_defaulted_seed(path, text)
        if not path.startswith(os.path.join(root, "examples")) and not path.startswith(
            os.path.join(root, "bench")
        ):
            violations += check_banned_clock_rand(path, text)
    metrics_h = os.path.join(root, "src", "core", "metrics.h")
    if os.path.exists(metrics_h):
        violations += check_metrics_coverage(
            metrics_h,
            [os.path.join(root, "tests", "test_trace.cpp"), os.path.join(root, "README.md")],
        )
    return violations


# --------------------------------------------------------------------------
# Self-test: each rule must fire on a synthetic violation and stay quiet on
# the clean twin. The fixtures double as documentation of what each rule
# rejects.

FIXTURE_CANCEL_BAD = """
void solve() {
  parallel_for(0, n, [&](size_t i) {
    relax(i);
    pp::cancel_point();  // throw on a pool worker -> terminate
  });
}
"""

FIXTURE_CANCEL_GOOD = """
void solve() {
  for (int round = 0; round < rounds; ++round) {
    pp::cancel_point();  // quiescent point between phases: legal
    parallel_for(0, n, [&](size_t i) { relax(i); });
  }
}
"""

FIXTURE_CLOCK_BAD = """
#include <chrono>
double now() {
  auto t = std::chrono::system_clock::now();  // non-monotonic
  int r = std::rand();
  return r;
}
"""

FIXTURE_CLOCK_GOOD = """
#include <chrono>
// std::rand and system_clock in a comment are fine.
double now() {
  auto t = std::chrono::steady_clock::now();
  return 0;
}
"""

FIXTURE_SEED_BAD = """
struct gen {
  explicit gen(uint64_t seed = 0);  // hidden global default
};
"""

FIXTURE_SEED_GOOD = """
struct gen {
  explicit gen(uint64_t seed);
  uint64_t seed = 7;  // member initializer: innermost bracket is '{'
};
void use() {
  uint64_t seed = 3;  // statement scope: no enclosing '('
  gen g(seed);
}
"""

FIXTURE_METRICS_REG = """
#define PP_METRICS(METRIC)                                                 \\
  METRIC(counter, serve_submitted, "pp_serve_submitted_total",             \\
         "Requests admitted")                                              \\
  METRIC(gauge, serve_queue_depth, "pp_serve_queue_depth", "Entries queued")
"""

FIXTURE_METRICS_CONSUMER_GOOD = """
pp_serve_submitted_total — requests admitted.
pp_serve_queue_depth — entries queued right now.
"""

FIXTURE_METRICS_CONSUMER_BAD = """
pp_serve_submitted_total — requests admitted. (queue depth undocumented)
"""


def expect(cond, what, failures):
    if cond:
        print("  ok: %s" % what)
    else:
        print("  FAIL: %s" % what)
        failures.append(what)


def self_test():
    import tempfile

    failures = []
    print("pplint self-test")

    v = check_cancel_in_parallel("bad.cpp", strip_comments_and_strings(FIXTURE_CANCEL_BAD))
    expect(len(v) == 1 and v[0].rule == "cancel-in-parallel", "cancel-in-parallel fires on cancel_point in parallel_for body", failures)
    v = check_cancel_in_parallel("good.cpp", strip_comments_and_strings(FIXTURE_CANCEL_GOOD))
    expect(len(v) == 0, "cancel-in-parallel quiet on phase-boundary cancel_point", failures)

    v = check_banned_clock_rand("bad.cpp", strip_comments_and_strings(FIXTURE_CLOCK_BAD))
    expect(
        len(v) == 2
        and any(x.msg.startswith("std::rand") for x in v)
        and any(x.msg.startswith("system_clock") for x in v),
        "banned-clock-rand fires on std::rand and system_clock",
        failures,
    )
    v = check_banned_clock_rand("good.cpp", strip_comments_and_strings(FIXTURE_CLOCK_GOOD))
    expect(len(v) == 0, "banned-clock-rand quiet on steady_clock and comments", failures)

    v = check_defaulted_seed("bad.h", strip_comments_and_strings(FIXTURE_SEED_BAD))
    expect(len(v) == 1 and v[0].rule == "defaulted-seed", "defaulted-seed fires on `seed = 0` parameter", failures)
    v = check_defaulted_seed("good.h", strip_comments_and_strings(FIXTURE_SEED_GOOD))
    expect(len(v) == 0, "defaulted-seed quiet on member initializer and locals", failures)

    with tempfile.TemporaryDirectory() as td:
        mreg = os.path.join(td, "metrics.cpp")
        mgood = os.path.join(td, "consumer_good.md")
        mbad = os.path.join(td, "consumer_bad.md")
        for p, content in (
            (mreg, FIXTURE_METRICS_REG),
            (mgood, FIXTURE_METRICS_CONSUMER_GOOD),
            (mbad, FIXTURE_METRICS_CONSUMER_BAD),
        ):
            with open(p, "w") as f:
                f.write(content)
        v = check_metrics_coverage(mreg, [mbad])
        expect(
            len(v) == 1 and v[0].rule == "metrics-coverage" and "pp_serve_queue_depth" in v[0].msg,
            "metrics-coverage fires on a metric missing from a consumer",
            failures,
        )
        v = check_metrics_coverage(mreg, [mgood])
        expect(len(v) == 0, "metrics-coverage quiet when every name is documented", failures)
        empty = os.path.join(td, "empty_metrics.cpp")
        with open(empty, "w") as f:
            f.write("// no registrations here\n")
        v = check_metrics_coverage(empty, [mgood])
        expect(
            len(v) == 1 and "lost its anchor" in v[0].msg,
            "metrics-coverage fires when the registration anchor vanishes",
            failures,
        )

    if failures:
        print("self-test FAILED (%d)" % len(failures))
        return 1
    print("self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description="pp project-invariant linter")
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))), help="repo root (default: parent of tools/)")
    ap.add_argument("--self-test", action="store_true", help="run the rule fixtures instead of linting the tree")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    violations = lint_tree(args.root)
    for v in violations:
        print(v)
    if violations:
        print("pplint: %d violation(s)" % len(violations))
        return 1
    print("pplint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
