#!/usr/bin/env python3
"""Runs one workload of the fbist benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the driver (perfbench/driver.cpp plus the library from src/) under
.bench_build/ on first use, runs it from the repository root, and prints
one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, printed after a readable table.
Workloads, metrics and their expected movements: perfbench/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# Relative to ROOT: sweep-mid names its circuits by path, so the string
# handed to the driver must be the same in every checkout.
WORK = Path(".bench_build") / "work"
WORKLOADS = ("flow-mid", "tradeoff-mid", "sweep-mid")
DRIVER_TIMEOUT_S = 170

# Self time of library spans (src/), keyed by metric name.
SPAN_SELF = {
    "netlist.compile_s": ("compile",),
    "fault.collapse_s": ("collapse",),
    "atpg.run_s": ("atpg",),
    "reseed.build_s": ("matrix_build", "packing"),
    "reseed.optimize_s": ("cover_solve",),
    "campaign.prepare_s": ("prepare",),
    "campaign.run_s": ("run",),
    "sim.replay_s": ("bench.replay",),
}
# Share of the timed phase's thread time (wall x threads) inside spans.
TIMED_SHARE = {
    "timed.atpg_pct": "atpg",
    "timed.build_pct": "matrix_build",
    "timed.cover_pct": "cover_solve",
}
REGISTRY_COUNTERS = (
    "atpg.sat_calls", "atpg.sat_conflicts", "sim.campaigns", "sim.blocks",
    "sim.faults_dropped", "sim.tier_narrow", "sim.tier_wide4",
    "sim.tier_wide8", "builder.packings", "scheduler.tasks",
    "scheduler.steals", "scheduler.loops", "scheduler.loops_degraded",
    "checkpoint.bytes",
)
# Nanosecond registry counters and histogram sums, reported in seconds.
REGISTRY_NS_COUNTERS = {"scheduler.park_s": "scheduler.park_ns"}
REGISTRY_NS_HISTOGRAMS = {
    "matrix_cache.store_s": "matrix_cache.store_ns",
    "checkpoint.write_s": "checkpoint.write_ns",
}
DRIVER_COUNTS = (
    "netlist.gates", "fault.collapsed", "atpg.patterns",
    "atpg.podem_attempts", "atpg.podem_aborts", "atpg.redundant",
    "reseed.rows", "reseed.candidate_patterns", "cover.reduction_iterations",
    "cover.necessary", "cover.residual_cells", "cover.exact_nodes",
    "sim.replay_patterns", "matrix_cache.hits", "matrix_cache.misses",
)


def log(*parts):
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; exits non-zero on failure."""
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", "4"],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed:", " ".join(cmd))
            sys.exit(1)


def self_times(events):
    """Self time (s) and count per span name, summed over thread tracks:
    a span's duration minus the part its child spans cover."""
    tracks = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            tracks[e["tid"]].append(e)
    self_s = defaultdict(float)
    count = defaultdict(int)
    for spans in tracks.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [name, end_us, dur_us, children_us]

        def close(frame):
            self_s[frame[0]] += max(0.0, frame[2] - frame[3]) * 1e-6
            count[frame[0]] += 1

        for e in spans:
            while stack and stack[-1][1] <= e["ts"] + 5e-4:
                close(stack.pop())
            if stack:
                stack[-1][3] += e["dur"]
            stack.append([e["name"], e["ts"] + e["dur"], e["dur"], 0.0])
        while stack:
            close(stack.pop())
    return self_s, count


def per_layer(raw, trace_path, metrics_path):
    events = json.loads(trace_path.read_text())["traceEvents"]
    registry = json.loads(metrics_path.read_text())["metrics"]
    self_s, count = self_times(events)
    out = {}
    for name, spans in SPAN_SELF.items():
        out[name] = sum(self_s.get(s, 0.0) for s in spans)

    (window,) = [e for e in events
                 if e.get("ph") == "X" and e["name"] == "bench.timed"]
    lo, hi = window["ts"], window["ts"] + window["dur"]
    thread_us = window["dur"] * raw["threads"]
    for name, span in TIMED_SHARE.items():
        inside = sum(e["dur"] for e in events
                     if e.get("ph") == "X" and e["name"] == span
                     and lo <= e["ts"] and e["ts"] + e["dur"] <= hi)
        out[name] = 100.0 * inside / thread_us

    counters, histograms = registry["counters"], registry["histograms"]
    for name in REGISTRY_COUNTERS:
        out[name] = counters.get(name, 0)
    for name, key in REGISTRY_NS_COUNTERS.items():
        out[name] = counters.get(key, 0) * 1e-9
    for name, key in REGISTRY_NS_HISTOGRAMS.items():
        out[name] = histograms.get(key, {}).get("sum", 0) * 1e-9

    counts = raw["counts"]
    for name in DRIVER_COUNTS:
        out[name] = counts.get(name, 0)
    attempts = counts.get("atpg.podem_attempts", 0)
    out["atpg.podem_abort_ratio"] = (
        counts.get("atpg.podem_aborts", 0) / attempts if attempts else 0.0)

    untraced = statistics.median(b["wall_s"] for b in raw["batches"])
    out["obs.trace_overhead_pct"] = (
        100.0 * (raw["traced"]["wall_s"] - untraced) / untraced)

    print(f"per-layer metrics, {raw['workload']} (traced iteration: "
          f"set-up, one batch, checks)")
    for name in sorted(out):
        print(f"  {name:32s} {out[name]:>16.6g}")
    print("span self time by name (all tracks)")
    for name in sorted(self_s, key=self_s.get, reverse=True):
        print(f"  {name:32s} {self_s[name]:>12.4f} s  x{count[name]}")
    return out


def units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    (ROOT / WORK).mkdir(parents=True, exist_ok=True)
    raw_path = WORK / f"raw-{args.workload}.json"
    trace_path = ROOT / f"{raw_path}.trace.json"
    metrics_path = ROOT / f"{raw_path}.metrics.json"
    for stale in (ROOT / raw_path, trace_path, metrics_path):
        stale.unlink(missing_ok=True)
    cmd = [str(BUILD / "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(WORK),
           "--raw", str(raw_path)]
    try:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        sys.exit(1)
    if rc != 0:
        log("driver failed with exit code", rc)
        sys.exit(1)
    raw = json.loads((ROOT / raw_path).read_text())

    batches = raw["batches"] + ([raw["traced"]] if "traced" in raw else [])
    attempted = sum(b["runs"] for b in batches)
    failed = sum(b["failed"] for b in batches) + raw["selftest_failed"]
    sums = ("reseedings", "test_length", "faults_targeted")
    repeat = all(b[k] == batches[0][k] for b in batches for k in sums)
    if not repeat:
        log("deterministic sums differ between batches")
    for message in raw["failures"]:
        log("check failed:", message)

    if args.trace:
        metrics = per_layer(raw, trace_path, metrics_path)
    else:
        first = raw["batches"][0]
        metrics = {
            "wall_s": statistics.median(b["wall_s"] for b in raw["batches"]),
            "cpu_s": statistics.median(b["cpu_s"] for b in raw["batches"]),
            "setup_s": statistics.median(raw["setup_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            **{k: first[k] for k in sums},
        }
    unit = units()
    print(json.dumps({
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]}
                    for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
