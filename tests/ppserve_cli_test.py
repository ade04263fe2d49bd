#!/usr/bin/env python3
"""Regression tests for the ppserve daemon binary.

Usage: ppserve_cli_test.py /path/to/ppserve

Covers the PR-5 bugfixes end to end, against the real binary:
  1. Negative engine flags are rejected with a usage error (exit 2)
     instead of wrapping through atoll -> size_t into astronomically
     large values; --max-inflight 0 is clamped to 1 explicitly.
  2. Blank request lines do not consume a default-id slot: auto-assigned
     response ids equal the request's position among real request lines.
  3. Cross-connection anonymous-seed uniqueness: request 0 of two
     concurrent TCP connections must NOT derive the same seed (the old
     per-session line index did exactly that); the seed set is exactly
     derive_seed(base, 0..k-1), reproducible from --seed alone.
  4. deadline_ms / priority / stats request fields round-trip.

And the PR-7 result cache end to end:
  5. A repeat (solver, n, seed) request is answered from the result cache
     ("cached": true, identical result envelope); --cache-off disables
     that; --cache-entries validates like every other count flag (0 is
     spelled --cache-off, so 0 and negatives exit 2).

And the PR-9 observability surface:
  6. {"metrics":true} answers with the Prometheus text rendering of the
     pp::metrics registry (as a JSON string member), whose counters moved
     with the traffic this test just sent; --metrics-port serves the same
     text over raw HTTP GET /metrics (200, text/plain) and 404s any other
     path; bad --metrics-port values exit 2 like every other flag.

And the PR-10 stateful sessions:
  7. create/delta/solve/drop round-trip: each verb answers a "session"
     descriptor (name/problem/version/fingerprint/elems/hints); a delta
     changes the fingerprint, an edge removal drops the hint flag, a
     repeat solve of one version hits the result cache, and every
     malformed verb/row answers an error envelope instead of killing the
     stream; --max-sessions validates like every count flag and bounds
     the table with LRU eviction.
"""
import json
import random
import socket
import subprocess
import sys
import time

PPSERVE = sys.argv[1]
MASK = (1 << 64) - 1


def derive_seed(seed, i):
    """SplitMix64 step over (seed, i) — must match pp::derive_seed."""
    x = (seed + (i + 1) * 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def run(args, stdin=""):
    p = subprocess.run([PPSERVE] + args, input=stdin.encode(), capture_output=True, timeout=120)
    return p.returncode, p.stdout.decode(), p.stderr.decode()


def check(cond, msg):
    if not cond:
        print("FAIL:", msg)
        sys.exit(1)
    print("ok:", msg)


# ---- 1. flag validation ------------------------------------------------------
for flags in (["--queue", "-1"], ["--max-batch", "-3"], ["--batch-window-us", "-5"],
              ["--max-inflight", "-2"], ["--workers-per-run", "-1"], ["--max-n", "0"],
              ["--queue", "banana"], ["--cache-entries", "-1"], ["--cache-entries", "0"],
              ["--cache-entries", "banana"], ["--backend", "openmp"]):
    rc, out, err = run(flags)
    check(rc == 2, f"{' '.join(flags)} rejected with exit 2 (got {rc}, stderr: {err.strip()!r})")

rc, out, err = run(["--max-inflight", "0"], stdin="")
check(rc == 0 and "clamped to 1" in err, f"--max-inflight 0 clamped explicitly ({err.strip()!r})")

# ---- 2. blank lines don't consume default-id slots ---------------------------
stdin = '{"solver":"lis/parallel","n":500}\n\n   \n{"solver":"lis/parallel","n":500}\n\n{"bad json\n'
rc, out, err = run([], stdin=stdin)
check(rc == 0, f"blank-line stream exits 0 (got {rc})")
lines = [json.loads(l) for l in out.splitlines()]
check(len(lines) == 3, f"3 responses for 3 real request lines (got {len(lines)})")
check([l["id"] for l in lines] == [0, 1, 2],
      f"auto ids are consecutive positions among real requests (got {[l['id'] for l in lines]})")
check(lines[0]["ok"] and lines[1]["ok"] and not lines[2]["ok"], "2 results + 1 parse error")

# ---- 3. cross-connection anonymous-seed uniqueness ---------------------------
BASE_SEED = 41


def try_tcp_session(port):
    """Start ppserve on `port`; return (proc, [sock, sock]) or (proc, None)."""
    proc = subprocess.Popen(
        [PPSERVE, "--port", str(port), "--seed", str(BASE_SEED), "--workers-per-run", "1"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    socks = []
    for _ in range(80):  # up to ~4 s for the listener to come up
        try:
            s = socket.create_connection(("127.0.0.1", port), timeout=1)
            socks.append(s)
            break
        except OSError:
            if proc.poll() is not None:
                return proc, None
            time.sleep(0.05)
    if not socks:
        return proc, None
    socks.append(socket.create_connection(("127.0.0.1", port), timeout=5))
    return proc, socks


proc, socks = None, None
for attempt in range(5):
    port = random.randint(20000, 50000)
    proc, socks = try_tcp_session(port)
    if socks:
        break
    proc.kill()
    proc.wait()
check(socks is not None, "TCP listener came up and accepted two connections")

try:
    # One anonymous request per connection, both in flight concurrently.
    for s in socks:
        s.sendall(b'{"solver":"lis/parallel","n":500}\n')
    seeds = []
    for s in socks:
        f = s.makefile("r")
        d = json.loads(f.readline())
        check(d["ok"], f"anonymous TCP request succeeded ({d})")
        seeds.append(d["result"]["seed"])
        s.shutdown(socket.SHUT_WR)
    check(seeds[0] != seeds[1],
          f"request 0 of two concurrent connections derived DIFFERENT seeds ({seeds})")
    want = {derive_seed(BASE_SEED, 0), derive_seed(BASE_SEED, 1)}
    check(set(seeds) == want,
          f"seeds are exactly derive_seed(base, 0..1) — reproducible from --seed ({seeds})")
finally:
    for s in socks or []:
        s.close()
    proc.terminate()
    proc.wait()

# ---- 4. QoS request fields ---------------------------------------------------
stdin = (
    '{"solver":"lis/parallel","n":500,"seed":3,"deadline_ms":60000,"priority":"interactive"}\n'
    '{"solver":"lis/parallel","n":500,"seed":4,"priority":"batch"}\n'
    '{"solver":"lis/parallel","n":500,"priority":"urgent"}\n'
    '{"solver":"lis/parallel","n":500,"deadline_ms":-5}\n'
    '{"stats":true}\n')
rc, out, err = run(["--seed", str(BASE_SEED)], stdin=stdin)
check(rc == 0, f"QoS stream exits 0 (got {rc})")
lines = [json.loads(l) for l in out.splitlines()]
check(len(lines) == 5, f"5 responses (got {len(lines)})")
check(lines[0]["ok"] and lines[0]["result"]["status"] == "ok", "deadline'd request succeeded")
check(lines[1]["ok"], "batch-priority request succeeded")
check(not lines[2]["ok"] and "priority" in lines[2]["error"], "bad priority rejected")
check(not lines[3]["ok"] and "deadline_ms" in lines[3]["error"], "bad deadline_ms rejected")
# Exact ordered keys of the engine_stats and session_desc objects: clients
# and benches read these names.
STATS_KEYS = ["submitted", "completed", "failed", "expired", "cancelled", "batches", "batched",
              "cache_hits", "cache_misses", "deduped", "peak_inflight", "queue_depth",
              "exec_seconds"]
SESSION_KEYS = ["name", "problem", "version", "fingerprint", "elems", "hints"]
stats = lines[4]
check(stats["ok"] and list(stats["stats"]) == STATS_KEYS,
      f"stats request reports the QoS counters, keys in order ({stats})")
# The snapshot is taken at parse time, after both well-formed requests were
# admitted (the reader feeds lines in order) but possibly before they ran.
check(stats["stats"]["submitted"] == 2, f"two admitted before the stats snapshot ({stats})")

# ---- 5. result cache ---------------------------------------------------------
# Interactive exchange (write one line, read its response) so the first
# request has COMPLETED before the repeat is submitted — a pipelined repeat
# would collapse via in-flight dedup instead of hitting the cache.


def interactive_session(extra_flags, exchanges):
    proc = subprocess.Popen([PPSERVE] + extra_flags, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = []
    try:
        for req in exchanges:
            proc.stdin.write((json.dumps(req) + "\n").encode())
            proc.stdin.flush()
            out.append(json.loads(proc.stdout.readline()))
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
    return out

REQ = {"solver": "lis/parallel", "n": 500, "seed": 9}
r1, r2, st = interactive_session(
    ["--seed", str(BASE_SEED)], [REQ, REQ, {"stats": True}])
check(r1["ok"] and r1["cached"] is False, f"first request executed ({r1.get('cached')})")
check(r2["ok"] and r2["cached"] is True, f"repeat request answered from cache ({r2.get('cached')})")
check(r1["result"] == r2["result"], "cached result envelope identical to the executed one")
check(list(st["stats"]) == STATS_KEYS, f"stats expose the cache counters ({st})")
check(st["stats"]["cache_hits"] == 1 and st["stats"]["cache_misses"] == 1,
      f"one miss then one hit ({st})")

r1, r2, st = interactive_session(
    ["--seed", str(BASE_SEED), "--cache-off"], [REQ, REQ, {"stats": True}])
check(r1["ok"] and r1["cached"] is False and r2["ok"] and r2["cached"] is False,
      "--cache-off: repeat executed again")
check(st["stats"]["cache_hits"] == 0 and st["stats"]["cache_misses"] == 0,
      f"--cache-off: no cache counters tick ({st})")

# ---- 6. observability: {"metrics":true} and --metrics-port -------------------


def prom_value(text, name):
    """Value of an unlabelled sample line 'name N' in Prometheus text."""
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == name:
            return float(parts[1])
    return None

r1, r2, m = interactive_session(
    ["--seed", str(BASE_SEED)], [REQ, REQ, {"metrics": True}])
check(r1["ok"] and r2["ok"] and m["ok"], "metrics exchange succeeded")
check(isinstance(m.get("metrics"), str) and "# TYPE" in m["metrics"],
      "metrics response carries Prometheus text as a JSON string")
prom = m["metrics"]
for name in ("pp_serve_submitted_total", "pp_serve_queue_depth", "pp_serve_cache_hits_total",
             "pp_serve_batch_size", "pp_pool_leases_total"):
    check(name in prom, f"metric family {name} present in the rendering")
# Both responses were read before the metrics line was sent, so the
# process-wide counters must reflect that traffic: one executed solve
# (miss), one cache hit, both delivered.
check(prom_value(prom, "pp_serve_submitted_total") == 1,
      "submitted counter moved with the executed request")
check(prom_value(prom, "pp_serve_cache_hits_total") == 1
      and prom_value(prom, "pp_serve_completed_total") == 2,
      "cache-hit and completed counters moved with the traffic")
check(prom_value(prom, "pp_serve_batch_size_count") >= 1,
      "batch-size histogram observed the flush")

rc, out, err = run(["--metrics-port", "0"])
check(rc == 2, f"--metrics-port 0 rejected with exit 2 (got {rc})")
rc, out, err = run(["--metrics-port", "banana"])
check(rc == 2, f"--metrics-port banana rejected with exit 2 (got {rc})")


def http_get(port, path):
    """One-shot HTTP/1.0 GET; returns the raw response text."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        s.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        chunks = []
        while True:
            b = s.recv(4096)
            if not b:
                break
            chunks.append(b)
    return b"".join(chunks).decode()


proc, raw = None, None
for attempt in range(5):
    port = random.randint(20000, 50000)
    proc = subprocess.Popen(
        [PPSERVE, "--metrics-port", str(port), "--workers-per-run", "1"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    for _ in range(80):
        try:
            raw = http_get(port, "/metrics")
            break
        except OSError:
            if proc.poll() is not None:
                break
            time.sleep(0.05)
    if raw is not None:
        break
    proc.kill()
    proc.wait()
try:
    check(raw is not None, "metrics HTTP listener came up")
    check(raw.startswith("HTTP/1.0 200") and "text/plain" in raw,
          f"GET /metrics answers 200 text/plain ({raw.splitlines()[:1]})")
    check("pp_serve_submitted_total" in raw and "# TYPE" in raw,
          "HTTP body is the Prometheus rendering")
    check(http_get(port, "/other").startswith("HTTP/1.0 404"), "GET /other answers 404")
finally:
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()

# ---- 7. stateful sessions ----------------------------------------------------
# create / delta / solve / drop over one stdin connection. Interactive
# exchange again: reading each response before sending the next request
# guarantees the daemon's note_solve (label feedback) has run, so the
# hint flags below are deterministic.
for flags in (["--max-sessions", "0"], ["--max-sessions", "-2"],
              ["--max-sessions", "banana"]):
    rc, out, err = run(flags)
    check(rc == 2, f"{' '.join(flags)} rejected with exit 2 (got {rc})")

SOLVE = {"session": "solve", "name": "g", "solver": "sssp/incremental", "seed": 11}
resp = interactive_session(["--seed", str(BASE_SEED)], [
    {"session": "create", "name": "g", "problem": "sssp", "n": 2000, "seed": 5},
    SOLVE,                                                          # v0, executes
    {"session": "delta", "name": "g", "add_edges": [[1, 2, 1], [3, 4, 2]]},
    SOLVE,                                                          # v1, executes
    SOLVE,                                                          # v1 repeat, cached
    {"session": "delta", "name": "g", "remove_edges": [[1, 2]]},    # invalidates hints
    {"session": "drop", "name": "g"},
    SOLVE,                                                          # unknown session now
    {"session": "delta", "name": "g", "add_edges": [[1, 2]]},       # wrong row width
    {"session": "frobnicate", "name": "g"},
    {"session": "drop", "name": "never-created"},
])
cr, s0, d1, s1, s2, d2, dr, e_gone, e_width, e_verb, dr2 = resp
check(cr["ok"] and cr["session"]["version"] == 0 and cr["session"]["problem"] == "sssp"
      and cr["session"]["hints"] is False and cr["session"]["elems"] > 0,
      f"create answers the version-0 descriptor ({cr})")
check(list(cr["session"]) == SESSION_KEYS, f"session descriptor keys in order ({cr})")
fp0 = cr["session"]["fingerprint"]
check(isinstance(fp0, str) and len(fp0) > 0, f"create reports a fingerprint ({fp0!r})")
check(s0["ok"] and s0["cached"] is False and s0["result"]["status"] == "ok"
      and s0["session"]["version"] == 0 and s0["session"]["fingerprint"] == fp0,
      f"solve pins and reports the version it solved ({s0.get('session')})")
check(d1["ok"] and d1["session"]["version"] == 1 and d1["session"]["fingerprint"] != fp0
      and d1["session"]["hints"] is True,
      f"delta installs v1 with a new fingerprint and live hints ({d1.get('session')})")
check(s1["ok"] and s1["cached"] is False and s1["session"]["version"] == 1
      and s1["session"]["hints"] is True, f"v1 solve executes with hints ({s1.get('session')})")
check(s2["ok"] and s2["cached"] is True and s2["result"] == s1["result"],
      f"repeat solve of the same version hits the result cache ({s2.get('cached')})")
check(d2["ok"] and d2["session"]["version"] == 2 and d2["session"]["hints"] is False,
      f"edge removal invalidates incremental hints ({d2.get('session')})")
check(dr["ok"] and dr["session"] == {"name": "g", "dropped": True}, f"drop acks ({dr})")
check(not e_gone["ok"] and "g" in e_gone["error"], f"solve after drop errors ({e_gone})")
check(not e_width["ok"] and "3" in e_width["error"],
      f"malformed add_edges row rejected ({e_width})")
check(not e_verb["ok"] and "create/delta/solve/drop" in e_verb["error"],
      f"unknown session verb lists the vocabulary ({e_verb})")
check(dr2["ok"] and dr2["session"]["dropped"] is False,
      f"dropping an unknown session acks dropped:false ({dr2})")

# LRU eviction: a 1-slot table forgets the older session when a second is
# created; the newer one keeps working.
a, b, sa, sb = interactive_session(
    ["--seed", str(BASE_SEED), "--max-sessions", "1"], [
        {"session": "create", "name": "a", "n": 500, "seed": 1},
        {"session": "create", "name": "b", "n": 500, "seed": 2},
        {"session": "solve", "name": "a", "solver": "sssp/dijkstra", "seed": 3},
        {"session": "solve", "name": "b", "solver": "sssp/dijkstra", "seed": 3},
    ])
check(a["ok"] and b["ok"], "both creates accepted under --max-sessions 1")
check(not sa["ok"] and "a" in sa["error"], f"LRU evicted session 'a' ({sa})")
check(sb["ok"] and sb["result"]["status"] == "ok", f"session 'b' survived eviction ({sb})")

print("ALL PASS")
