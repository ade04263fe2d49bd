"""Repository benchmark: phase solvers at full width and ppserve traffic.

    python3 ppbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds ppdriver and ppserve (Release)
into $CARGO_TARGET_DIR or .bench_build, runs the workload, checks every
output, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of the workload. --trace 1 reports
the per-layer metrics: the workload's own layers over --seconds, every other
layer from a quarter-length probe, plus the traced runs. METRICS.md says
which end-to-end metric each per-layer metric should move.
"""

import argparse
import json
import os
import signal
import sys

sys.dont_write_bytecode = True  # leave the benchmark directory as checked out
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BenchError, build, log, median, spin_ms  # noqa: E402
from roster import Roster  # noqa: E402
import serving  # noqa: E402

WORKLOADS = ("phase_roster", "serve_small", "serve_sessions")


def declared(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def roster_e2e(seconds, seed):
    r = Roster(seed)
    r.setup()
    r.sweeps(seconds, ["hw"])
    m = r.end_to_end()
    m["ok_share"] = r.ok / r.attempted
    m["setup_s"] = median(r.setup_s)
    m["peak_rss_mb"] = r.max_rss_kb / 1024
    return m, r.attempted, r.attempted - r.ok


def end_to_end(workload, seconds, seed):
    if workload == "phase_roster":
        return roster_e2e(seconds, seed)
    e2e, _, n, failed = (serving.run_small if workload == "serve_small"
                         else serving.run_sessions)(seconds, seed)
    return e2e, n, failed


def per_layer(workload, seconds, seed):
    """Every layer's metrics; the workload's own section runs full length."""
    length = {w: seconds if w == workload else seconds / 4 for w in WORKLOADS}
    m = {"host.spin_ms": spin_ms()}
    r = Roster(seed)
    r.setup()
    r.sweeps(length["phase_roster"], ["hw", "w1", "seq"])
    m.update(r.per_layer())
    m.update(r.traced())
    m["host.steal_share"] = r.steal_share()
    attempted, failed = r.attempted, r.attempted - r.ok
    _, layer, n, f = serving.run_small(length["serve_small"], seed)
    m.update(layer)
    attempted, failed = attempted + n, failed + f
    layer, n, f = serving.traced_small(seed)
    m.update(layer)
    attempted, failed = attempted + n, failed + f
    _, layer, n, f = serving.run_sessions(length["serve_sessions"], seed)
    m.update(layer)
    return m, attempted + n, failed + f


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated benchmark still unwinds, so its servers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        units = declared(args.trace)
        build()
        fn = per_layer if args.trace else end_to_end
        metrics, attempted, failed = fn(args.workload, args.seconds, args.seed)
        if set(metrics) != set(units):
            raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"run failed: {type(e).__name__}: {e}")
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
