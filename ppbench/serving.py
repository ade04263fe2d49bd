"""serve_small and serve_sessions: ppserve over TCP, driven by closed loops.

The server runs with default engine flags plus ``--port``. With ``--port``
ppserve never exits on its own (stdin EOF does not end it), so the benchmark
owns its lifecycle: it reads VmHWM, terminates the process and reaps it,
and bounds every connect, read and wait with a timeout.
"""

import json
import os
import random
import shutil
import socket
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from common import (NPROC, WORK, BenchError, binary, geomean, median, percentile,
                    run_child)
import tracesum

IO_TIMEOUT = 60     # any single request/response round trip
START_TIMEOUT = 20  # spawn until the port accepts
MASK = (1 << 64) - 1


def derive_seed(seed, i):
    """pp::derive_seed (src/core/context.h): item i's seed under base `seed`."""
    x = (seed + (i + 1) * 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


class Conn:
    """One NDJSON connection; request() is one timed round trip."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rf = self.sock.makefile("rb")

    def request(self, obj):
        line = (json.dumps(obj) + "\n").encode()
        t0 = time.perf_counter()
        self.sock.sendall(line)
        raw = self.rf.readline()
        ms = (time.perf_counter() - t0) * 1e3
        if not raw:
            raise BenchError("ppserve closed the connection")
        return ms, json.loads(raw)

    def close(self):
        self.rf.close()
        self.sock.close()


class Server:
    """A ppserve --port process: started ready to accept, stopped and reaped."""

    def __init__(self, flags=()):
        for _ in range(3):
            with socket.socket() as s:
                s.bind(("127.0.0.1", 0))
                self.port = s.getsockname()[1]
            os.makedirs(WORK, exist_ok=True)
            self.err = open(os.path.join(WORK, "ppserve.err"), "w+")
            self.proc = subprocess.Popen(
                [binary("ppserve"), "--port", str(self.port), *flags],
                stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=self.err)
            if self._wait_ready():
                return
            self.stop()
        raise BenchError("ppserve did not start listening")

    def _wait_ready(self):
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                return False
            self.err.seek(0)
            if "bind/listen" in self.err.read():
                return False
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=1).close()
                return True
            except OSError:
                time.sleep(0.002)
        return False

    def connect(self):
        return Conn(self.port)

    def vmhwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM for ppserve")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdin.close()
        self.err.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def run_threads(fn, count):
    """Run fn(i) on `count` threads; re-raise the first failure."""
    with ThreadPoolExecutor(max_workers=count) as pool:
        return [f.result() for f in [pool.submit(fn, i) for i in range(count)]]


def engine_stats(conn):
    _, r = conn.request({"stats": True})
    return r["stats"]


# ---- serve_small -------------------------------------------------------------

SMALL_N = 2000
SMALL_CONNS = 4
# Phase and sequential families whose n=2k requests take 1-10 ms. lis/parallel
# and the SSSP phase solvers (30-160 ms at this n) are left to phase_roster:
# in this mix they would sit a mode boundary next to p90. Relaxed solvers are
# out because their outputs are checked structurally, not by score.
SMALL_FAMILIES = [
    "whac/parallel", "activity/type1", "activity/type2", "mis/tas", "mis/rounds",
    "knapsack/parallel", "huffman/parallel", "list_ranking/parallel", "shuffle/parallel",
    "coloring/tas", "matching/rounds", "activity_unweighted/parallel",
    "lis/sequential", "whac/sequential", "activity/sequential", "mis/sequential",
    "sssp/dijkstra", "knapsack/sequential", "huffman/sequential",
    "list_ranking/sequential", "shuffle/sequential", "coloring/sequential",
]
# One deck per cycle of a connection: every family once, plus exact repeats
# (7 of 29 slots, 24%). "own" repeats a key this connection sent recently
# (a cache hit); "cross" repeats the key the next connection reserved last,
# which is often still in flight (a dedup) or just finished (a cache hit).
SMALL_DECK = [("fresh", f) for f in SMALL_FAMILIES] + [("own", None)] * 4 + [("cross", None)] * 3
SMALL_SETUPS = 7
WARM_KEYS = 3        # warm-up requests per family in one set-up
WARM_INDEX = 1 << 40  # warm-up keys live far from the measured key prefix


class SmallTraffic:
    """Key schedule of serve_small: per-family seed prefixes, shared by all connections."""

    def __init__(self, seed):
        self.base = {f: derive_seed(seed, i) for i, f in enumerate(SMALL_FAMILIES)}
        self.next = {f: 0 for f in SMALL_FAMILIES}
        self.last = [None] * SMALL_CONNS
        self.lock = threading.Lock()

    def fresh(self, conn, family):
        with self.lock:
            i = self.next[family]
            self.next[family] += 1
            key = (family, derive_seed(self.base[family], i))
            self.last[conn] = key
        return key

    def cross(self, conn):
        with self.lock:
            return self.last[(conn + 1) % SMALL_CONNS]

    def warm_keys(self, rep):
        return [(f, derive_seed(self.base[f], WARM_INDEX + rep * WARM_KEYS + i))
                for i in range(WARM_KEYS) for f in SMALL_FAMILIES]

    def references(self):
        """Sequential-backend scores of every measured key, via ppdriver batch."""
        def one(family):
            count = self.next[family]
            if count == 0:
                return {}
            c = run_child([binary("ppdriver"), "batch", family, "--count", str(count),
                           "--n", str(SMALL_N), "--seed", str(self.base[family]),
                           "--backend", "sequential", "--json"], 170)
            if c.rc != 0:
                raise BenchError(f"reference batch {family} exited {c.rc}: {c.err[-500:]}")
            b = json.loads(c.out.strip().splitlines()[-1])
            ref = {}
            for i, item in enumerate(b["items"]):
                if item["seed"] != derive_seed(self.base[family], i):
                    raise BenchError(f"reference batch {family}: seed rule mismatch at {i}")
                ref[(family, item["seed"])] = item["score"]
            return ref

        refs = {}
        with ThreadPoolExecutor(max_workers=min(4, NPROC)) as pool:
            for r in pool.map(one, SMALL_FAMILIES):
                refs.update(r)
        return refs


def small_request(key, rid=None):
    req = {"solver": key[0], "n": SMALL_N, "seed": key[1]}
    if rid is not None:
        req["id"] = rid
    return req


def small_loop(server, traffic, seconds, seed, max_requests=None, ids=False):
    """Closed loop: each connection sends its next request on the last reply."""
    deadline = time.perf_counter() + seconds

    def client(c):
        rng = random.Random(derive_seed(seed, 1000 + c))
        conn = server.connect()
        recent, out, deck = [], [], []
        try:
            while time.perf_counter() < deadline and (max_requests is None or
                                                      len(out) < max_requests):
                if not deck:
                    deck = list(SMALL_DECK)
                    rng.shuffle(deck)
                kind, family = deck.pop()
                key = None
                if kind == "cross":
                    key = traffic.cross(c)
                elif kind == "own" and recent:
                    key = rng.choice(recent[-16:])
                if key is None:
                    key = traffic.fresh(c, family or rng.choice(SMALL_FAMILIES))
                recent.append(key)
                rid = f"c{c}r{len(out)}" if ids else None
                ms, resp = conn.request(small_request(key, rid))
                out.append((key, ms, resp))
        finally:
            conn.close()
        return out

    t0 = time.perf_counter()
    per_conn = run_threads(client, SMALL_CONNS)
    return [r for rs in per_conn for r in rs], time.perf_counter() - t0


def small_setup(traffic, rep):
    """Start a server and warm it: WARM_KEYS requests per family, not measured."""
    t0 = time.perf_counter()
    server = Server()
    try:
        conn = server.connect()
        for key in traffic.warm_keys(rep):
            _, r = conn.request(small_request(key))
            if not r.get("ok"):
                raise BenchError(f"warm-up {key[0]} failed: {r.get('error')}")
        conn.close()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def run_small(seconds, seed):
    """serve_small; returns (end_to_end, per_layer, attempted, failed)."""
    traffic = SmallTraffic(seed)
    setup_s = []
    for rep in range(SMALL_SETUPS):
        server, s = small_setup(traffic, rep)
        setup_s.append(s)
        if rep + 1 < SMALL_SETUPS:
            server.stop()
    with server:
        ctl = server.connect()
        before = engine_stats(ctl)
        results, wall = small_loop(server, traffic, seconds, seed)
        # Asked only now that every reply is in: stats are answered on arrival.
        after = engine_stats(ctl)
        ctl.close()
        rss = server.vmhwm_mb()
    refs = traffic.references()

    ok = 0
    lat, executed = [], []  # executed: (latency, envelope seconds) of uncached replies
    solve_s = {}
    for key, ms, r in results:
        lat.append(ms)
        res = r.get("result", {})
        if r.get("ok") and res.get("status") == "ok" and res.get("score") == refs.get(key):
            ok += 1
        if r.get("ok") and not r["cached"]:
            executed.append((ms, res["seconds"] * 1e3))
            solve_s.setdefault(key[0], []).append(res["seconds"] * 1e3)
    hits = [ms for _, ms, r in results if r.get("ok") and r["cached"]]
    n = len(results)
    d = {k: after[k] - before[k] for k in ("submitted", "batches", "cache_hits", "deduped")}
    e2e = {
        "solve_geo_ms": geomean([median(v) for v in solve_s.values()]),
        "latency_p50_ms": percentile(lat, 50),
        "latency_p90_ms": percentile(lat, 90),
        "throughput_rps": n / wall,
        "ok_share": ok / n,
        "setup_s": median(setup_s),
        "peak_rss_mb": rss,
    }
    layer = {
        "ppserve.overhead_p50_ms": percentile([ms - s for ms, s in executed], 50),
        "serve.engine.cache_hit_p50_ms": percentile(hits, 50) if len(hits) > 1 else 0.0,
        "algos.solve_share": sum(s for _, s in executed) / sum(ms for ms, _ in executed),
        "serve.engine.cache_hit_share": d["cache_hits"] / n,
        "serve.engine.dedup_share": d["deduped"] / n,
        "serve.engine.requests_per_flush": d["submitted"] / max(d["batches"], 1),
    }
    return e2e, layer, n, n - ok


def traced_small(seed, requests=64):
    """A short serve_small run under ppserve --trace-dir, summarized."""
    tdir = os.path.join(WORK, "trace", "serve")
    shutil.rmtree(tdir, ignore_errors=True)
    os.makedirs(tdir)
    traffic = SmallTraffic(derive_seed(seed, 77))
    with Server(["--trace-dir", tdir]) as server:
        results, _ = small_loop(server, traffic, 60, seed,
                                max_requests=requests // SMALL_CONNS, ids=True)
        conn = server.connect()
        conn.request({"stats": True, "id": "final"})
        # Responses on one connection are written in order, each followed by
        # its trace dump: once this reply is in, final.json is complete.
        _, m = conn.request({"metrics": True, "id": "metrics"})
        conn.close()
    overwrites = 0.0
    for line in m["metrics"].splitlines():
        if line.startswith("pp_trace_ring_overwrites_total"):
            overwrites = float(line.split()[-1])
    merged = tracesum.merge([tracesum.summarize(tracesum.load(os.path.join(tdir, "final.json")),
                                                solves=len(results))])
    shutil.rmtree(tdir, ignore_errors=True)
    failed = sum(1 for _, _, r in results if not r.get("ok"))
    return {
        "serve.engine.queue_wait_ms": tracesum.self_ms(merged, "serve/queue_wait"),
        "serve.engine.coalesce_ms": tracesum.self_ms(merged, "serve/coalesce"),
        "serve.engine.flush_ms": tracesum.self_ms(merged, "serve/flush"),
        "serve.engine.gather_ms": tracesum.self_ms(merged, "serve/gather"),
        "trace.ring_overwrites": overwrites,
    }, len(results), failed


# ---- serve_sessions ----------------------------------------------------------

SESSION_N = 200_000
SESSION_CONNS = 2
DELTA_EDGES = 64
ROLLBACK_EVERY = 32  # every 32nd op removes the previous op's edges instead
SESSION_SETUPS = 3


def session_setup(seed):
    """Start a server, create one session per connection and solve it once."""
    t0 = time.perf_counter()
    server = Server()
    try:
        def create(c):
            conn = server.connect()
            try:
                ms, r = conn.request({"session": "create", "name": f"s{c}", "problem": "sssp",
                                      "n": SESSION_N, "seed": derive_seed(seed, 500 + c)})
                if not r.get("ok"):
                    raise BenchError(f"session create failed: {r.get('error')}")
                _, s = conn.request({"session": "solve", "name": f"s{c}",
                                     "solver": "sssp/incremental", "seed": 1})
                if not s.get("ok"):
                    raise BenchError(f"first session solve failed: {s.get('error')}")
            finally:
                conn.close()
            return ms / 1e3

        create_s = run_threads(create, SESSION_CONNS)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0, create_s


def session_client(server, c, seconds, seed):
    """One connection's closed loop of delta+solve ops on its own session."""
    name = f"s{c}"
    rng = random.Random(derive_seed(seed, 600 + c))
    conn = server.connect()
    ops = []
    prev = None
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline:
            i = len(ops)
            rollback = i % ROLLBACK_EVERY == ROLLBACK_EVERY - 1 and prev is not None
            if rollback:
                delta = {"remove_edges": [e[:2] for e in prev]}
                prev = None
            else:
                prev = []
                while len(prev) < DELTA_EDGES:
                    u, v = rng.randrange(SESSION_N), rng.randrange(SESSION_N)
                    if u != v:
                        prev.append([u, v, rng.randint(1, 1024)])
                delta = {"add_edges": prev}
            t0 = time.perf_counter()
            d_ms, d = conn.request({"session": "delta", "name": name, **delta})
            s_ms, s = conn.request({"session": "solve", "name": name,
                                    "solver": "sssp/incremental",
                                    "seed": derive_seed(seed, 10_000 + i)})
            ops.append({"ms": (time.perf_counter() - t0) * 1e3, "delta_ms": d_ms,
                        "solve_ms": s_ms, "delta": d, "solve": s})
        _, final = conn.request({"session": "solve", "name": name, "solver": "sssp/dijkstra",
                                 "seed": 2})
    finally:
        conn.close()
    return ops, final


def check_session(ops, final, fp_score):
    """Count the ops whose replies are consistent; False if the final check fails."""
    ok = 0
    last = None
    for op in ops:
        d, s = op["delta"], op["solve"]
        good = (d.get("ok") and s.get("ok") and s["result"]["status"] == "ok"
                and s["session"]["version"] == d["session"]["version"])
        if good:
            fp, score = s["session"]["fingerprint"], s["result"]["score"]
            good = fp_score.setdefault(fp, score) == score
            last = score
        ok += bool(good)
    final_ok = bool(final.get("ok") and last is not None and final["result"]["score"] == last)
    return ok, final_ok


def run_sessions(seconds, seed):
    """serve_sessions; returns (end_to_end, per_layer, attempted, failed)."""
    setup_s, create_s = [], []
    for rep in range(SESSION_SETUPS):
        server, s, cs = session_setup(seed)
        setup_s.append(s)
        create_s += cs
        if rep + 1 < SESSION_SETUPS:
            server.stop()
    with server:
        t0 = time.perf_counter()
        per_conn = run_threads(lambda c: session_client(server, c, seconds, seed), SESSION_CONNS)
        wall = time.perf_counter() - t0
        rss = server.vmhwm_mb()

    fp_score = {}
    ops, ok, failed_sessions = [], 0, 0
    for conn_ops, final in per_conn:
        good, final_ok = check_session(conn_ops, final, fp_score)
        ok += good
        failed_sessions += not final_ok
        ops += conn_ops
    n = len(ops)
    failed = n - ok + failed_sessions
    solved = [op for op in ops if op["solve"].get("ok")]
    hinted = [op for op in solved if op["solve"]["session"]["hints"]]
    full = [op["solve_ms"] for op in solved if not op["solve"]["session"]["hints"]]
    # Hinted and full re-solves are the two kinds of solve in this mix.
    kinds = {}
    for op in solved:
        kinds.setdefault(op["solve"]["session"]["hints"], []).append(
            op["solve"]["result"]["seconds"] * 1e3)
    e2e = {
        "solve_geo_ms": geomean([median(v) for v in kinds.values()]),
        "latency_p50_ms": percentile([op["ms"] for op in ops], 50),
        "latency_p90_ms": percentile([op["ms"] for op in ops], 90),
        "throughput_rps": n / wall,
        "ok_share": max(n - failed, 0) / n,
        "setup_s": median(setup_s),
        "peak_rss_mb": rss,
    }
    layer = {
        "serve.session.delta_p50_ms": percentile([op["delta_ms"] for op in ops], 50),
        "serve.session.solve_p50_ms": percentile([op["solve_ms"] for op in hinted], 50),
        "serve.session.full_resolve_ms": median(full) if full else 0.0,
        "serve.session.hinted_share": len(hinted) / max(len(solved), 1),
        "serve.session.create_s": median(create_s),
    }
    return e2e, layer, n, failed
