"""Shared plumbing for the benchmark: building the program, running child
processes with a hard timeout, and the statistics every workload reports.

Everything the benchmark writes goes under the build directory inside the
checkout (``$CARGO_TARGET_DIR`` if set, else ``.bench_build``).
"""

import math
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
WORK = os.path.join(BUILD, "ppbench")
TARGETS = ("ppdriver", "ppserve")
NPROC = len(os.sched_getaffinity(0))


class BenchError(Exception):
    """A failure that makes the run invalid: no result line is printed."""


def log(msg):
    print(f"[ppbench] {msg}", file=sys.stderr, flush=True)


def binary(name):
    return os.path.join(BUILD, name)


def build():
    """Configure (once) and build ppdriver and ppserve from the checkout."""
    for need in ("CMakeLists.txt", os.path.join("tools", "ppdriver.cpp"),
                 os.path.join("tools", "ppserve.cpp")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found in {ROOT}: run from a checkout of the repository")
    os.makedirs(WORK, exist_ok=True)
    logf = os.path.join(WORK, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", *TARGETS, "-j", str(min(NPROC, 4))])
    with open(logf, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=850).returncode
            except subprocess.TimeoutExpired as e:
                raise BenchError(f"build step timed out: {' '.join(cmd)}") from e
            if rc != 0:
                with open(logf) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError(f"build step failed ({rc}): {' '.join(cmd)}")
    for t in TARGETS:
        if not os.access(binary(t), os.X_OK):
            raise BenchError(f"build produced no {t}")


class Child:
    """Result of one finished child process."""

    def __init__(self, rc, out, err, maxrss_kb, wall_s):
        self.rc, self.out, self.err = rc, out, err
        self.maxrss_kb, self.wall_s = maxrss_kb, wall_s


_child_seq = 0
_child_lock = threading.Lock()


def run_child(argv, timeout):
    """Run argv to completion and return a Child, including its own peak RSS.

    Output goes through files (no pipe can fill up), the process is reaped
    with wait4 so its rusage is its own, and a watchdog kills it at
    `timeout` seconds, which fails the run.
    """
    global _child_seq
    with _child_lock:
        _child_seq += 1
        tag = _child_seq
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(WORK, f"child{tag}.out")
    err_path = os.path.join(WORK, f"child{tag}.err")
    killed = threading.Event()
    t0 = time.perf_counter()
    with open(out_path, "w+") as fo, open(err_path, "w+") as fe:
        p = subprocess.Popen(argv, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL)

        def kill():
            killed.set()
            p.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        fo.seek(0)
        fe.seek(0)
        out, err = fo.read(), fe.read()
    os.unlink(out_path)
    os.unlink(err_path)
    if killed.is_set():
        raise BenchError(f"timed out after {timeout}s: {' '.join(argv)}")
    return Child(p.returncode, out, err, ru.ru_maxrss, wall)


def cpu_ticks():
    """(steal, total) CPU ticks summed over all CPUs since boot; (0, 0) if unknown.

    Steal is time the hypervisor ran something else while a vCPU of this
    machine had work.
    """
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (v[7], sum(v)) if len(v) == 8 else (0, 0)


def median(xs):
    return statistics.median(xs)


def percentile(xs, q):
    """Linear-interpolated q-th percentile (0 < q < 100)."""
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def spin_ms(reps=3, iters=1_500_000):
    """Host calibration probe: median wall time of a fixed pure-Python loop."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(iters):
            acc = (acc + i * i) & 0xFFFF
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)
