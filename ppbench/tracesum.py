"""Summarize Chrome trace-event files written by the program's tracer.

The tracer (``ppdriver run --trace`` and ``ppserve --trace-dir``) records
complete ("X") events with a thread id but no parent link, so nesting is
rebuilt per thread from the intervals. A span's self time is its duration
minus that of its direct children. A ``run`` span is *attributed* to the
extent named non-``run`` spans nested inside it cover it.

Usage: python3 ppbench/tracesum.py TRACE.json [TRACE.json ...]
"""

import json
import sys

# Per-thread ring capacity of the tracer (kRingCapacity in src/core/trace.h).
# A thread with this many records has wrapped or is about to: its oldest
# spans may be missing.
RING_CAPACITY = 8192


def load(path):
    """Events as (name, tid, start_us, dur_us) tuples."""
    with open(path) as f:
        doc = json.load(f)
    return [(e["name"], e["tid"], float(e["ts"]), float(e["dur"]))
            for e in doc["traceEvents"] if e.get("ph") == "X"]


class _Node:
    __slots__ = ("name", "start", "end", "children")

    def __init__(self, name, start, dur):
        self.name, self.start, self.end = name, start, start + dur
        self.children = []


def _forest(events):
    """Per-thread nesting by interval containment; returns the root nodes."""
    by_tid = {}
    for name, tid, ts, dur in events:
        by_tid.setdefault(tid, []).append(_Node(name, ts, dur))
    roots = []
    for nodes in by_tid.values():
        nodes.sort(key=lambda n: (n.start, -n.end))
        stack = []
        for n in nodes:
            while stack and n.end > stack[-1].end:
                stack.pop()
            (stack[-1].children if stack else roots).append(n)
            stack.append(n)
    return roots


def _covered(node):
    """Time of `node` covered by named non-run spans (through nested runs)."""
    return sum(_covered(c) if c.name == "run" else c.end - c.start for c in node.children)


def summarize(events, solves):
    """Span table plus run attribution for one trace of `solves` solves."""
    spans = {}
    run_us = covered_us = 0.0
    run_count = 0

    def walk(node, in_run):
        nonlocal run_us, covered_us, run_count
        dur = node.end - node.start
        s = spans.setdefault(node.name, {"count": 0, "total_us": 0.0, "self_us": 0.0})
        s["count"] += 1
        s["total_us"] += dur
        s["self_us"] += dur - sum(c.end - c.start for c in node.children)
        if node.name == "run":
            run_count += 1
            if not in_run:
                run_us += dur
                covered_us += _covered(node)
        for c in node.children:
            walk(c, in_run or node.name == "run")

    for root in _forest(events):
        walk(root, False)
    per_tid = {}
    for _, tid, _, _ in events:
        per_tid[tid] = per_tid.get(tid, 0) + 1
    return {
        "spans": spans,
        "run_us": run_us,
        "covered_us": covered_us,
        "run_count": run_count,
        "solves": solves,
        "full_rings": sum(1 for c in per_tid.values() if c >= RING_CAPACITY),
    }


def merge(summaries):
    """Combine several summaries and derive the share/ratio metrics."""
    spans = {}
    for s in summaries:
        for name, v in s["spans"].items():
            m = spans.setdefault(name, {"count": 0, "total_us": 0.0, "self_us": 0.0})
            for k in m:
                m[k] += v[k]
    run_us = sum(s["run_us"] for s in summaries)
    solves = sum(s["solves"] for s in summaries)
    return {
        "spans": spans,
        "attributed_share": sum(s["covered_us"] for s in summaries) / run_us if run_us else 0.0,
        "run_spans_per_solve": sum(s["run_count"] for s in summaries) / solves if solves else 0.0,
        "full_rings": sum(s["full_rings"] for s in summaries),
        "solves": solves,
    }


def self_ms(merged, name):
    """Self time of spans named `name` per solve (or request), in ms."""
    s = merged["spans"].get(name)
    return s["self_us"] / merged["solves"] / 1e3 if s and merged["solves"] else 0.0


def main(paths):
    merged = merge([summarize(load(p), solves=1) for p in paths])
    print(f"{'span':<24} {'count':>8} {'total_ms':>12} {'self_ms':>12}")
    for name, s in sorted(merged["spans"].items(), key=lambda kv: -kv[1]["self_us"]):
        print(f"{name:<24} {s['count']:>8} {s['total_us'] / 1e3:>12.3f} {s['self_us'] / 1e3:>12.3f}")
    print(f"attributed_share = {merged['attributed_share']:.4f}")
    print(f"run spans per file = {merged['run_spans_per_solve']:.2f}")
    print(f"rings at capacity = {merged['full_rings']}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
