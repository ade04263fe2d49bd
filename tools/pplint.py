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
  solver-coverage      Every registered solver family must also register its
                       reference implementation (`<family>/sequential`, or
                       `sssp/dijkstra` for sssp) so the cross-checking
                       harnesses (test_soak, ppfuzz) can verify every
                       solver; and those harnesses must enumerate the
                       registry dynamically (`.solvers()`), never keep a
                       hand-maintained list that can go stale.
  fingerprint-coverage Every problem_input variant alternative must declare
                       a canonicalizer (`void canonicalize(const X&,
                       fingerprint_stream&)`), or its fingerprint would fall
                       back to nothing and content addressing (result cache,
                       dedup, golden table, ppfuzz corpus) silently breaks
                       for that problem (see core/fingerprint.h).
  relaxed-coverage     Every `*/relaxed` solver must (a) declare its
                       phase-mode determinism reference in its registry
                       description ("phase ref: <solver>", and that solver
                       must itself be registered — it is the oracle the
                       structural checkers and benches compare against),
                       (b) run on an execution path that carries a
                       cancel_point() call (the MultiQueue driver), and
                       (c) be exercised by tests/test_relaxed.cpp. Relaxed
                       solvers are exempt from the golden table, so this
                       rule is what keeps their oracle and coverage honest.
  metrics-coverage     Every metric name literal in the catalog list of
                       src/core/metrics.h (the single place names may
                       live) must appear in tests/test_trace.cpp (the
                       Prometheus golden) and in README.md (the metrics
                       catalog). A counter that ships unrendered-in-docs or
                       untested is invisible twice over; this rule makes
                       adding a metric force both the golden and the
                       catalog forward in the same commit.
  session-coverage     Every `*/incremental` solver must (a) declare its
                       from-scratch exactness oracle in its registry
                       description ("from-scratch ref: <solver>", itself
                       registered — incremental results are bit-compared
                       against it, never approximate), and (b) be
                       exercised by tests/test_session.cpp. The serve
                       protocol (src/serve/protocol.cpp, which must exist)
                       must handle all four session verbs (create/delta/
                       solve/drop).

The JSON records (phase_stats, run_result, batch_result, engine_stats,
session_desc) need no rule: each struct body and its writer expand one
field list (src/core/fields.h), so a writer cannot skip a field.

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
# Rule: solver-coverage

# Families whose reference solver is not `<family>/sequential`.
REFERENCE_EXCEPTIONS = {"sssp": "sssp/dijkstra"}


# One registration: add_solver("name", "description" ...). A description
# may be split across adjacent string literals.
REGISTRATION = r'add_solver\s*\(\s*"([^"]+)"\s*,\s*((?:"[^"]*"\s*)+)'


def registrations(registry_text):
    """(name, description) of every add_solver call."""
    return [
        (n, "".join(re.findall(r'"([^"]*)"', d)))
        for n, d in re.findall(REGISTRATION, registry_text)
    ]


def registration_line(raw, name_prefix):
    m = re.search(r'add_solver\s*\(\s*"%s' % re.escape(name_prefix), raw)
    return line_of(raw, m.start()) if m else 1


def check_solver_coverage(root, registry_path, harness_paths):
    out = []
    with open(registry_path, encoding="utf-8") as f:
        raw = f.read()
    text = strip_comments_and_strings(raw)
    # Registration names live in string literals, so extract them from the
    # raw text but only at positions the stripped text still marks as code.
    names = [n for n, _d in registrations(raw)]
    if not names:
        out.append(Violation(registry_path, 1, "solver-coverage", "no add_solver registrations found (parser broken?)"))
        return out
    families = {}
    for n in names:
        fam = n.split("/", 1)[0]
        families.setdefault(fam, set()).add(n)
    for fam in sorted(families):
        ref = REFERENCE_EXCEPTIONS.get(fam, fam + "/sequential")
        if ref not in names:
            line = registration_line(raw, fam + "/")
            out.append(
                Violation(
                    registry_path,
                    line,
                    "solver-coverage",
                    "family '%s' registers %d solver(s) but no reference '%s'; "
                    "test_soak and ppfuzz cannot cross-check it" % (fam, len(families[fam]), ref),
                )
            )
    for hp in harness_paths:
        with open(hp, encoding="utf-8") as f:
            htext = strip_comments_and_strings(f.read())
        if ".solvers()" not in htext.replace(" ", ""):
            out.append(
                Violation(
                    hp,
                    1,
                    "solver-coverage",
                    "harness does not enumerate registry::instance().solvers(); "
                    "a hand-kept solver list silently goes stale",
                )
            )
    return out


# --------------------------------------------------------------------------
# Rule: fingerprint-coverage


def check_fingerprint_coverage(path, text):
    """Every alternative of `using problem_input = std::variant<...>` must
    have a canonicalizer declared (`canonicalize(const X&`). An alternative
    without one has no canonical byte stream, so its fingerprint — and with
    it the serve-layer cache/dedup keys, the golden-result table, and the
    ppfuzz corpus — would silently stop addressing that problem's content."""
    out = []
    m = re.search(r"\busing\s+problem_input\s*=\s*std\s*::\s*variant\s*<([^>]*)>", text)
    if not m:
        out.append(
            Violation(path, 1, "fingerprint-coverage", "problem_input variant not found (parser broken?)")
        )
        return out
    alts = [a.strip() for a in m.group(1).split(",") if a.strip()]
    if not alts:
        out.append(
            Violation(path, line_of(text, m.start()), "fingerprint-coverage", "problem_input variant has no alternatives (parser broken?)")
        )
        return out
    for alt in alts:
        if not re.search(r"\bcanonicalize\s*\(\s*const\s+%s\s*&" % re.escape(alt), text):
            out.append(
                Violation(
                    path,
                    line_of(text, m.start()),
                    "fingerprint-coverage",
                    "problem_input alternative '%s' has no canonicalizer "
                    "(void canonicalize(const %s&, fingerprint_stream&)); its "
                    "fingerprint cannot address the input's content" % (alt, alt),
                )
            )
    return out


# --------------------------------------------------------------------------
# Rule: relaxed-coverage


def check_relaxed_coverage(registry_path, impl_paths, test_path):
    """Every registered `*/relaxed` solver must declare a registered phase
    reference in its description, the relaxed execution path must contain a
    cancel_point() call, and the solver must appear in test_relaxed.cpp."""
    out = []
    with open(registry_path, encoding="utf-8") as f:
        raw = f.read()
    regs = registrations(raw)
    names = {n for n, _d in regs}
    relaxed = [(n, d) for n, d in regs if n.endswith("/relaxed")]
    for name, desc in relaxed:
        line = registration_line(raw, name + '"')
        rm = re.search(r"phase ref:\s*([\w/]+)", desc)
        if not rm:
            out.append(
                Violation(
                    registry_path,
                    line,
                    "relaxed-coverage",
                    "relaxed solver '%s' does not declare its determinism "
                    "reference ('phase ref: <solver>' in the description)" % name,
                )
            )
        elif rm.group(1) not in names:
            out.append(
                Violation(
                    registry_path,
                    line,
                    "relaxed-coverage",
                    "relaxed solver '%s' declares 'phase ref: %s' but no such "
                    "solver is registered" % (name, rm.group(1)),
                )
            )
    if not relaxed:
        return out
    impl_text = ""
    for p in impl_paths:
        with open(p, encoding="utf-8") as f:
            impl_text += strip_comments_and_strings(f.read())
    if not re.search(r"\bcancel_point\s*\(", impl_text):
        out.append(
            Violation(
                impl_paths[0] if impl_paths else registry_path,
                1,
                "relaxed-coverage",
                "relaxed execution path has no cancel_point() call; relaxed "
                "runs could never unwind on cancellation",
            )
        )
    if test_path is None or not os.path.exists(test_path):
        out.append(
            Violation(
                registry_path,
                1,
                "relaxed-coverage",
                "relaxed solvers are registered but tests/test_relaxed.cpp "
                "does not exist",
            )
        )
    else:
        with open(test_path, encoding="utf-8") as f:
            test_raw = f.read()
        for name, _d in relaxed:
            if name not in test_raw:
                out.append(
                    Violation(
                        test_path,
                        1,
                        "relaxed-coverage",
                        "relaxed solver '%s' is not exercised by %s"
                        % (name, os.path.basename(test_path)),
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
# Rule: session-coverage

SESSION_VERBS = ("create", "delta", "solve", "drop")


def check_session_coverage(registry_path, test_path, serve_path):
    """Every registered `*/incremental` solver must declare a registered
    from-scratch reference in its description and appear in
    tests/test_session.cpp; src/serve/protocol.cpp must exist and dispatch
    every session verb."""
    out = []
    with open(registry_path, encoding="utf-8") as f:
        raw = f.read()
    regs = registrations(raw)
    names = {n for n, _d in regs}
    incremental = [(n, d) for n, d in regs if n.endswith("/incremental")]
    for name, desc in incremental:
        line = registration_line(raw, name + '"')
        rm = re.search(r"from-scratch ref:\s*([\w/]+)", desc)
        if not rm:
            out.append(
                Violation(
                    registry_path,
                    line,
                    "session-coverage",
                    "incremental solver '%s' does not declare its exactness "
                    "oracle ('from-scratch ref: <solver>' in the description)" % name,
                )
            )
        elif rm.group(1) not in names:
            out.append(
                Violation(
                    registry_path,
                    line,
                    "session-coverage",
                    "incremental solver '%s' declares 'from-scratch ref: %s' "
                    "but no such solver is registered" % (name, rm.group(1)),
                )
            )
    if incremental:
        if test_path is None or not os.path.exists(test_path):
            out.append(
                Violation(
                    registry_path,
                    1,
                    "session-coverage",
                    "incremental solvers are registered but "
                    "tests/test_session.cpp does not exist",
                )
            )
        else:
            with open(test_path, encoding="utf-8") as f:
                test_raw = f.read()
            for name, _d in incremental:
                if name not in test_raw:
                    out.append(
                        Violation(
                            test_path,
                            1,
                            "session-coverage",
                            "incremental solver '%s' is not exercised by %s"
                            % (name, os.path.basename(test_path)),
                        )
                    )
    if not os.path.exists(serve_path):
        out.append(
            Violation(
                serve_path,
                1,
                "session-coverage",
                "the session-verb dispatcher %s does not exist" % os.path.basename(serve_path),
            )
        )
    else:
        with open(serve_path, encoding="utf-8") as f:
            serve_raw = f.read()
        for verb in SESSION_VERBS:
            if not re.search(r'verb\s*==\s*"%s"' % verb, serve_raw):
                out.append(
                    Violation(
                        serve_path,
                        1,
                        "session-coverage",
                        "the serve protocol does not dispatch the session verb '%s' "
                        "(want all of create/delta/solve/drop)" % verb,
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
    registry = os.path.join(root, "src", "core", "registry.cpp")
    harnesses = [
        os.path.join(root, "tests", "test_soak.cpp"),
        os.path.join(root, "tools", "ppfuzz.cpp"),
    ]
    if os.path.exists(registry):
        violations += check_solver_coverage(root, registry, [h for h in harnesses if os.path.exists(h)])
        relaxed_impls = [
            p
            for p in (
                os.path.join(root, "src", "algos", "relaxed.cpp"),
                os.path.join(root, "src", "parallel", "multiqueue.h"),
            )
            if os.path.exists(p)
        ]
        violations += check_relaxed_coverage(
            registry, relaxed_impls, os.path.join(root, "tests", "test_relaxed.cpp")
        )
        violations += check_session_coverage(
            registry,
            os.path.join(root, "tests", "test_session.cpp"),
            os.path.join(root, "src", "serve", "protocol.cpp"),
        )
    metrics_h = os.path.join(root, "src", "core", "metrics.h")
    if os.path.exists(metrics_h):
        violations += check_metrics_coverage(
            metrics_h,
            [os.path.join(root, "tests", "test_trace.cpp"), os.path.join(root, "README.md")],
        )
    registry_h = os.path.join(root, "src", "core", "registry.h")
    if os.path.exists(registry_h):
        with open(registry_h, encoding="utf-8") as f:
            violations += check_fingerprint_coverage(registry_h, strip_comments_and_strings(f.read()))
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

FIXTURE_REGISTRY_BAD = """
void register_all(registry& r) {
  r.add_solver("foo/parallel", "has no reference twin", fn);
  r.add_solver("bar/sequential", "fine", fn);
}
"""

FIXTURE_HARNESS_BAD = """
int main() {
  const char* names[] = {"foo/parallel", "bar/sequential"};  // stale list
  for (auto n : names) run(n);
}
"""


FIXTURE_RELAXED_REGISTRY_BAD = """
void register_all(registry& r) {
  r.add_solver("foo/relaxed", "async greedy, reference unstated", fn);
  r.add_solver("bar/relaxed", "async greedy (phase ref: bar/rounds)", fn);
  r.add_solver("foo/sequential", "fine", fn);
}
"""

FIXTURE_RELAXED_REGISTRY_GOOD = """
void register_all(registry& r) {
  r.add_solver("baz/relaxed", "async greedy (phase ref: baz/rounds)", fn);
  r.add_solver("baz/rounds", "phase-parallel twin", fn);
}
"""

FIXTURE_RELAXED_IMPL_BAD = """
mq_counters mq_run(const context& ctx, multiqueue& q) {
  // no cancel_point anywhere: a cancelled relaxed run could never unwind
  return {};
}
"""

FIXTURE_RELAXED_IMPL_GOOD = """
mq_counters mq_run(const context& ctx, multiqueue& q) {
  cancel_point();
  return {};
}
"""

FIXTURE_RELAXED_TEST_GOOD = """
TEST(Relaxed, Valid) { run("baz/relaxed"); }
"""

FIXTURE_FP_BAD = """
struct alpha_input { int n; };
void canonicalize(const alpha_input& in, fingerprint_stream& s);
struct beta_input { int n; };  // no canonicalizer: content-address hole
using problem_input = std::variant<alpha_input, beta_input>;
"""

FIXTURE_FP_GOOD = """
struct alpha_input { int n; };
void canonicalize(const alpha_input& in, fingerprint_stream& s);
struct beta_input { int n; };
void canonicalize(const beta_input& in, fingerprint_stream& s);
using problem_input =
    std::variant<alpha_input, beta_input>;
"""


FIXTURE_SESSION_REGISTRY_BAD = """
void register_all(registry& r) {
  r.add_solver("foo/incremental", "delta re-solve, oracle unstated", fn);
  r.add_solver("bar/incremental", "delta re-solve (from-scratch ref: bar/exact)", fn);
  r.add_solver("foo/sequential", "fine", fn);
}
"""

FIXTURE_SESSION_REGISTRY_GOOD = """
void register_all(registry& r) {
  r.add_solver("baz/incremental", "delta re-solve (from-scratch ref: baz/sequential)", fn);
  r.add_solver("baz/sequential", "the exactness oracle", fn);
}
"""

FIXTURE_SESSION_TEST_GOOD = """
TEST(Session, IncrementalIsExact) { run("baz/incremental"); }
"""

FIXTURE_SESSION_SERVE_BAD = """
void feed(const std::string& verb) {
  if (verb == "create") { }
  if (verb == "delta") { }
  if (verb == "solve") { }
  // "drop" forgotten: sessions could never be released over the wire
}
"""

FIXTURE_SESSION_SERVE_GOOD = """
void feed(const std::string& verb) {
  if (verb == "create") { }
  if (verb == "delta") { }
  if (verb == "solve") { }
  if (verb == "drop") { }
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
        reg = os.path.join(td, "registry.cpp")
        harness = os.path.join(td, "soak.cpp")
        with open(reg, "w") as f:
            f.write(FIXTURE_REGISTRY_BAD)
        with open(harness, "w") as f:
            f.write(FIXTURE_HARNESS_BAD)
        v = check_solver_coverage(td, reg, [harness])
        expect(
            len(v) == 2 and any("foo" in x.msg for x in v) and any("solvers()" in x.msg for x in v),
            "solver-coverage fires on missing reference and stale harness list",
            failures,
        )

        rreg_bad = os.path.join(td, "relaxed_registry_bad.cpp")
        rreg_good = os.path.join(td, "relaxed_registry_good.cpp")
        rimpl_bad = os.path.join(td, "relaxed_impl_bad.h")
        rimpl_good = os.path.join(td, "relaxed_impl_good.h")
        rtest = os.path.join(td, "test_relaxed.cpp")
        for p, content in (
            (rreg_bad, FIXTURE_RELAXED_REGISTRY_BAD),
            (rreg_good, FIXTURE_RELAXED_REGISTRY_GOOD),
            (rimpl_bad, FIXTURE_RELAXED_IMPL_BAD),
            (rimpl_good, FIXTURE_RELAXED_IMPL_GOOD),
            (rtest, FIXTURE_RELAXED_TEST_GOOD),
        ):
            with open(p, "w") as f:
                f.write(content)
        v = check_relaxed_coverage(rreg_bad, [rimpl_bad], rtest)
        expect(
            any("does not declare its determinism reference" in x.msg for x in v)
            and any("no such solver is registered" in x.msg for x in v)
            and any("no cancel_point" in x.msg for x in v)
            and any("not exercised by" in x.msg for x in v),
            "relaxed-coverage fires on missing ref, bad ref, missing cancel_point, untested solver",
            failures,
        )
        v = check_relaxed_coverage(rreg_good, [rimpl_good], rtest)
        expect(
            len(v) == 0,
            "relaxed-coverage quiet on declared+registered ref, cancel_point, tested solver",
            failures,
        )

        sreg_bad = os.path.join(td, "session_registry_bad.cpp")
        sreg_good = os.path.join(td, "session_registry_good.cpp")
        stest = os.path.join(td, "test_session.cpp")
        sserve_bad = os.path.join(td, "ppserve_bad.cpp")
        sserve_good = os.path.join(td, "ppserve_good.cpp")
        for p, content in (
            (sreg_bad, FIXTURE_SESSION_REGISTRY_BAD),
            (sreg_good, FIXTURE_SESSION_REGISTRY_GOOD),
            (stest, FIXTURE_SESSION_TEST_GOOD),
            (sserve_bad, FIXTURE_SESSION_SERVE_BAD),
            (sserve_good, FIXTURE_SESSION_SERVE_GOOD),
        ):
            with open(p, "w") as f:
                f.write(content)
        v = check_session_coverage(sreg_bad, stest, sserve_bad)
        expect(
            any("does not declare its exactness oracle" in x.msg for x in v)
            and any("no such solver is registered" in x.msg for x in v)
            and any("not exercised by" in x.msg for x in v)
            and any("session verb 'drop'" in x.msg for x in v),
            "session-coverage fires on missing ref, bad ref, untested solver, missing verb",
            failures,
        )
        v = check_session_coverage(sreg_good, stest, sserve_good)
        expect(
            len(v) == 0,
            "session-coverage quiet on declared+registered ref, tested solver, full verbs",
            failures,
        )
        v = check_session_coverage(
            sreg_good, stest, os.path.join(td, "protocol_missing.cpp")
        )
        expect(
            any("dispatcher protocol_missing.cpp does not exist" in x.msg for x in v),
            "session-coverage fires when the serve dispatcher file is missing",
            failures,
        )

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

    v = check_fingerprint_coverage("bad.h", strip_comments_and_strings(FIXTURE_FP_BAD))
    expect(
        len(v) == 1 and v[0].rule == "fingerprint-coverage" and "beta_input" in v[0].msg,
        "fingerprint-coverage fires on variant alternative without canonicalizer",
        failures,
    )
    v = check_fingerprint_coverage("good.h", strip_comments_and_strings(FIXTURE_FP_GOOD))
    expect(len(v) == 0, "fingerprint-coverage quiet when every alternative is covered", failures)

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
