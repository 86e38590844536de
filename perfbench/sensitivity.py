#!/usr/bin/env python3
"""Sensitivity check of the benchmark, using only existing knobs.

    python3 perfbench/sensitivity.py [--runs N] [--seconds S]

Runs each configuration N times with distinct seeds and compares medians
the way a regression check does: a metric is flagged when the candidate's
median is worse than the baseline's by more than the metric's bound in
BENCHMARK.json.

  A/A       every workload, two sets of N runs of the same code: nothing
            may be flagged.
  threads   tree_scan at half its default scan threads (nproc/4 instead
            of nproc/2, at least 1): throughput_per_s must be flagged.
  serve     daemon_oneshot with `serve --threads 1` instead of nproc/2:
            throughput_per_s (the worker pool's service capacity) must be
            flagged.

Prints one line per comparison and exits nonzero when an expectation
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPECS = {m["name"]: m for m in BENCH["end_to_end"]}


def run(workload, seed, seconds, extra, trace=0):
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace), *extra],
                         cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} {extra}: run failed\n{out.stderr[-2000:]}")
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in doc["metrics"].items()}


def medians(workload, seeds, seconds, extra=(), trace=0):
    runs = [run(workload, s, seconds, list(extra), trace) for s in seeds]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def flagged(base, cand):
    """Metrics whose candidate median is worse than baseline by > bound."""
    out = []
    for name, spec in SPECS.items():
        b, c = base[name], cand[name]
        worse = (c - b) / b if spec["better"] == "lower" else (b - c) / b
        if worse > spec["bound"]:
            out.append(f"{name} {worse:+.1%}")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    args = ap.parse_args()
    n = args.runs
    seeds_a = [1000 + i for i in range(n)]
    seeds_b = [2000 + i for i in range(n)]
    ok = True

    base = {}
    for w in [w["name"] for w in BENCH["workloads"]]:
        base[w] = medians(w, seeds_a, args.seconds)
        again = medians(w, seeds_b, args.seconds)
        got = flagged(base[w], again)
        print(f"A/A {w}: flagged {got or 'nothing'}", flush=True)
        ok &= not got

    half = max(1, (os.cpu_count() or 1) // 4)
    cand = medians("tree_scan", seeds_a, args.seconds, ["--threads", str(half)])
    got = flagged(base["tree_scan"], cand)
    print(f"tree_scan --threads {half}: flagged {got or 'nothing'}", flush=True)
    ok &= any(g.startswith("throughput_per_s") for g in got)

    cand = medians("daemon_oneshot", seeds_a, args.seconds, ["--serve-threads", "1"])
    got = flagged(base["daemon_oneshot"], cand)
    print(f"daemon_oneshot --serve-threads 1: flagged {got or 'nothing'}", flush=True)
    ok &= any(g.startswith("throughput_per_s") for g in got)

    print("sensitivity check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
