#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs every workload in two sets.

Usage, from the root of a bsdtrace checkout:

    python3 perfbench/steadiness.py

Each of the two sets runs every workload in BENCHMARK.json once per seed
(seeds 1..10, the same seeds in both sets), one run after another.  For each
workload, set and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median.  It then
compares each metric with its bound from BENCHMARK.json: every spread must
stay within the bound, and the second set's median may not be worse than
the first set's by more than the bound.  Spreads above a third of the bound
are flagged as not yet steady.  Exits non-zero when a bound is exceeded or a
run fails.
"""

import json
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=200)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{' '.join(cmd)} reported failed checks")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # values[set][workload][metric] -> list over seeds
    values = []
    walls = []
    for s in range(SETS):
        values.append({w: {m: [] for m in metrics} for w in workloads})
        for w in workloads:
            for seed in SEEDS:
                got, wall = run_once(w, seed, bench["run_seconds"])
                walls.append(wall)
                for m in metrics:
                    values[s][w][m].append(got[m])
                print(f"set {s + 1} {w} seed {seed}: {wall:.1f} s", file=sys.stderr)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<24} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m, spec in metrics.items():
            bound = spec["bound"]
            first_median = None
            for s in range(SETS):
                median, q1, q3, spread = summarize(values[s][w][m])
                verdict = "ok"
                if spread > bound:
                    verdict, ok = "SPREAD OVER BOUND", False
                elif spread > bound / 3:
                    verdict = "spread over bound/3"
                if first_median is None:
                    first_median = median
                else:
                    worse = (median - first_median) / first_median
                    if spec["better"] == "higher":
                        worse = -worse
                    if worse > bound:
                        verdict, ok = f"MEDIAN WORSE BY {worse:.3f}", False
                print(f"  {m:<24} {s + 1:>3} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>7.4f} {bound:>6.3f}  {verdict}")
    print(f"\n{len(walls)} runs, mean {statistics.mean(walls):.1f} s, max {max(walls):.1f} s")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
