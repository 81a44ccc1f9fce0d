#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload N times and report spreads.

    python3 omnibench/steady.py [--runs 10] [--first-seed 1]

Run from the root of the repository. Every workload of BENCHMARK.json runs
N times through run.py at BENCHMARK.json's run_seconds, each run with its
own seed (first-seed, first-seed+1, ...), so each is its own process. For
every end-to-end metric it prints each run's value, the median, the
quartiles (statistics.quantiles(values, n=4)), the interquartile spread as
a share of the median, and the bound from BENCHMARK.json with the spread's
share of it; the bounds are set from these spreads. It also prints the
share of failed operations over all runs. It then makes one traced run per
workload and reports tracing overhead: each end-to-end figure the traced
run measured against the untraced runs' median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=1000)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"steady.py: {workload} seed {seed} exited with {out.returncode}")
    result = json.loads(lines[-1])
    traced = {}
    for line in lines:
        if line.startswith("traced_end_to_end "):
            traced = json.loads(line[len("traced_end_to_end "):])
    return result, traced


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    opts = ap.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        attempted = failed = 0
        correct = True
        for i in range(opts.runs):
            result, _ = run_once(workload, opts.first_seed + i, seconds, 0)
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {opts.runs} runs, seeds {opts.first_seed}..{opts.first_seed + opts.runs - 1}, "
              f"correct {correct}, failed {failed}/{attempted} operations")
        print(f"   {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'of bound':>8}")
        medians = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            medians[name] = med
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            share = f"{spread / bound:8.2f}" if bound else ""
            print(f"   {name:<18} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {bound!s:>6} {share}")
            print("      " + " ".join(f"{v:.5g}" for v in vals))
        _, traced = run_once(workload, opts.first_seed, seconds, 1)
        for name, value in traced.items():
            base = medians.get(name)
            if base:
                print(f"   tracing overhead {name}: traced {value:.5g} vs untraced median {base:.5g} "
                      f"({100 * (value / base - 1):+.1f}%)")


if __name__ == "__main__":
    main()
