"""phase_roster: the paper's phase solvers at full width, one call at a time.

Every call goes through the public CLI, ``ppdriver run <solver> --repeats R
--json``; the envelope's per-repeat ``seconds`` is the solve alone (input
construction happens once per process, before the first repeat). Solvers
run interleaved, one invocation each per sweep, so a slow phase of the host
hits every solver alike.
"""

import json
import math
import os
import time

from common import (NPROC, WORK, BenchError, binary, cpu_ticks, geomean, log, median,
                    percentile, run_child)
import tracesum

# key, solver, n, sequential reference, repeats per invocation. Repeats keep
# one invocation near a second, so cheap solvers get more samples per sweep.
ROSTER = [
    ("whac", "whac/parallel", 10_000, "whac/sequential", 2),
    ("lis", "lis/parallel", 20_000, "lis/sequential", 1),
    ("activity_t1", "activity/type1", 200_000, "activity/sequential", 3),
    ("activity_t2", "activity/type2", 200_000, "activity/sequential", 2),
    ("mis_tas", "mis/tas", 200_000, "mis/sequential", 3),
    ("sssp", "sssp/phase_parallel", 200_000, "sssp/dijkstra", 2),
    ("knapsack", "knapsack/parallel", 200_000, "knapsack/sequential", 3),
]
CALL_TIMEOUT = 120
SETUP_PASSES = 3
TRACED_CALLS = 2
# A 4-worker barrier-synchronous solve slows far more than the CPU time the
# hypervisor steals: on a 4-vCPU VM at 16% steal the roster ran 50% slower.
# An invocation during which more than MAX_STEAL of the machine's CPU time
# was stolen is kept for the correctness check but its times are set aside,
# and sweeps go on (up to twice --seconds) until every solver has
# CLEAN_INVOCATIONS clean ones. Set-aside times are used only for a solver
# that got none.
MAX_STEAL = 0.02
CLEAN_INVOCATIONS = 2


def ppdriver_run(solver, n, seed, workers, repeats, trace_path=None):
    """One `ppdriver run` invocation; returns (items, child)."""
    argv = [binary("ppdriver"), "run", solver, "--n", str(n), "--seed", str(seed),
            "--workers", str(workers), "--repeats", str(repeats), "--json"]
    if trace_path:
        argv += ["--trace", trace_path]
    c = run_child(argv, CALL_TIMEOUT)
    if c.rc != 0:
        raise BenchError(f"ppdriver run {solver} exited {c.rc}: {c.err.strip()[-500:]}")
    items = json.loads(c.out.strip().splitlines()[-1])["items"]
    if len(items) != repeats:
        raise BenchError(f"ppdriver run {solver}: {len(items)} items, expected {repeats}")
    return items, c


class Roster:
    """Accumulates every call of one run: samples per (key, width) and checks."""

    def __init__(self, seed):
        self.seed = seed
        self.ref = {}        # reference solver -> expected score
        self.samples = {}    # (key, width) -> [seconds] of clean invocations
        self.stolen = {}     # (key, width) -> [seconds] of invocations with steal
        self.stats = {}      # key -> envelope stats of a full-width call
        self.attempted = 0
        self.ok = 0
        self.max_rss_kb = 0
        self.setup_s = []
        self.steal_ticks = self.cpu_ticks = 0
        self.set_aside = 0   # invocations whose times were set aside for steal

    def _call(self, key, width, solver, n, workers, reps, expect, trace_path=None):
        """One invocation: check every repeat, file its times by steal."""
        s0, t0 = cpu_ticks()
        items, c = ppdriver_run(solver, n, self.seed, workers, reps, trace_path)
        s1, t1 = cpu_ticks()
        self.steal_ticks += s1 - s0
        self.cpu_ticks += t1 - t0
        clean = s1 - s0 <= MAX_STEAL * (t1 - t0)
        self.set_aside += not clean
        self.max_rss_kb = max(self.max_rss_kb, c.maxrss_kb)
        for it in items:
            self.attempted += 1
            if it["status"] == "ok" and it["score"] == expect:
                self.ok += 1
            (self.samples if clean else self.stolen).setdefault((key, width), []).append(
                it["seconds"])
        if width == "hw":
            self.stats[key] = items[-1]["stats"]

    def times(self, key, width):
        return self.samples.get((key, width)) or self.stolen[(key, width)]

    def steal_share(self):
        return self.steal_ticks / self.cpu_ticks if self.cpu_ticks else 0.0

    def setup(self):
        """Build each input and solve it with the sequential reference.

        The reference scores are what every later call is checked against;
        the pass is timed whole and repeated, and setup_s is its median.
        """
        refs = {ref: n for _, _, n, ref, _ in ROSTER}
        for _ in range(SETUP_PASSES):
            total = 0.0
            for ref, n in refs.items():
                items, c = ppdriver_run(ref, n, self.seed, 1, 1)
                total += c.wall_s
                self.max_rss_kb = max(self.max_rss_kb, c.maxrss_kb)
                score = items[0]["score"]
                if self.ref.setdefault(ref, score) != score:
                    raise BenchError(f"{ref} is not deterministic: {score} != {self.ref[ref]}")
            self.setup_s.append(total)

    def sweeps(self, seconds, widths):
        """Interleaved sweeps for `seconds` (whole sweeps only), see MAX_STEAL.

        widths: subset of "hw" (NPROC workers), "w1" (1 worker) and "seq"
        (the sequential reference solver).
        """
        t0 = time.perf_counter()
        rot = 0
        while True:
            order = ROSTER[rot % len(ROSTER):] + ROSTER[:rot % len(ROSTER)]
            rot += 1
            for key, solver, n, ref, reps in order:
                for width in widths:
                    if width == "seq":
                        self._call(ref, "seq", ref, n, 1, reps, self.ref[ref])
                    else:
                        workers = NPROC if width == "hw" else 1
                        self._call(key, width, solver, n, workers, reps, self.ref[ref])
            elapsed = time.perf_counter() - t0
            enough = all(len(self.samples.get((ref if w == "seq" else key, w), []))
                         >= CLEAN_INVOCATIONS * reps
                         for key, _, _, ref, reps in ROSTER for w in widths)
            if elapsed >= 2 * seconds or (elapsed >= seconds and enough):
                log(f"roster: {rot} sweeps in {elapsed:.1f}s, {self.set_aside} invocations "
                    f"set aside for steal ({self.steal_share():.1%} stolen)")
                return

    def hw_medians_ms(self):
        return {key: median(self.times(key, "hw")) * 1e3 for key, *_ in ROSTER}

    def end_to_end(self):
        """Full-width call times as seen by a caller of a random roster solver.

        Every solver weighs the same, however many calls it made: each
        solver's calls are repeated up to a common count before pooling.
        """
        per = [[s * 1e3 for s in self.times(key, "hw")] for key, *_ in ROSTER]
        common = math.lcm(*(len(v) for v in per))
        calls = [x for v in per for x in v for _ in range(common // len(v))]
        return {
            "solve_geo_ms": geomean(list(self.hw_medians_ms().values())),
            "latency_p50_ms": percentile(calls, 50),
            "latency_p90_ms": percentile(calls, 90),
            "throughput_rps": 1e3 / (sum(calls) / len(calls)),
        }

    def per_layer(self):
        m = {}
        for key, _, _, ref, _ in ROSTER:
            hw = median(self.times(key, "hw")) * 1e3
            w1 = median(self.times(key, "w1")) * 1e3
            seq = median(self.times(ref, "seq")) * 1e3
            st = self.stats[key]
            m[f"algos.{key}.hw_ms"] = hw
            m[f"algos.{key}.w1_ms"] = w1
            m[f"algos.{key}.seq_ms"] = seq
            m[f"algos.{key}.self_speedup"] = w1 / hw
            m[f"algos.{key}.work_overhead"] = w1 / seq
            # Solvers without phase rounds (the TAS tree) count as one round.
            m[f"core.{key}.round_us"] = hw * 1e3 / max(st["rounds"], 1)
            m[f"core.{key}.rounds"] = st["rounds"]
            m[f"core.{key}.wakeups_per_obj"] = st["avg_wakeups"]
        return m

    def traced(self):
        """ppdriver run --trace per roster solver; summarized span metrics."""
        tdir = os.path.join(WORK, "trace", "roster")
        os.makedirs(tdir, exist_ok=True)
        traced_ms = {}
        summaries = []
        for key, solver, n, ref, _ in ROSTER:
            for i in range(TRACED_CALLS):
                path = os.path.join(tdir, f"{key}.{i}.json")
                self._call(key, "traced", solver, n, NPROC, 1, self.ref[ref], trace_path=path)
                summaries.append(tracesum.summarize(tracesum.load(path), solves=1))
                os.unlink(path)
            traced_ms[key] = median(self.times(key, "traced")) * 1e3
        merged = tracesum.merge(summaries)
        return {
            "core.run_self_ms": tracesum.self_ms(merged, "run"),
            "parallel.lease_ms": tracesum.self_ms(merged, "pool/lease_acquire"),
            "trace.attributed_share": merged["attributed_share"],
            "core.run_spans_per_solve": merged["run_spans_per_solve"],
            "trace.full_rings": merged["full_rings"],
            "trace.overhead": geomean(list(traced_ms.values())) / geomean(
                list(self.hw_medians_ms().values())),
        }
