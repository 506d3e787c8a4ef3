#!/usr/bin/env python3
"""Steadiness check of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py

Makes two sets of ten untraced runs of every BENCHMARK.json workload, each
run measuring BENCHMARK.json's run_seconds: set 1 uses seeds 1-10, set 2 seeds
101-110. The two sets' runs are interleaved (seed 1, seed 101, seed 2, ...,
every workload at each step), so slow drift of the host's speed falls on both
sets alike. For every workload and end-to-end metric it prints each set's
median, quartiles (statistics.quantiles, n=4) and spread, the interquartile
distance as a share of the median, against the metric's bound, and how far set
2's median moved from set 1's in the metric's worse direction. Exits 1 when a
spread or a move exceeds its bound. Run it from the root of a checkout; the raw
results go to .bench_build/steadiness.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10
SET_SEED_BASE = (0, 100)
OUT = os.path.join(".bench_build", "steadiness.json")


def spread(values):
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worsening(first, later, better):
    """How much `later` is worse than `first`, as a share of `first` (<= 0: not worse)."""
    if first == 0:
        return 0.0 if later == first else float("inf")
    change = (later - first) / first
    return change if better == "lower" else -change


def plan(workloads):
    """[(workload, set index, seed)] in run order: the sets interleaved."""
    return [(w, k, base + i + 1) for i in range(SEEDS)
            for k, base in enumerate(SET_SEED_BASE) for w in workloads]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [[] for _ in SET_SEED_BASE] for w in workloads}  # workload -> [set][run]
    for workload, k, seed in plan(workloads):
        r = run_once(workload, seed, spec["run_seconds"])
        if not r["correct"] or r["failed"]:
            print("%s seed %d: correct=%s failed=%d/%d" %
                  (workload, seed, r["correct"], r["failed"], r["attempted"]))
        results[workload][k].append(r)
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(results, f)

    ok = True
    print("| workload | metric | set | median | q1 | q3 | spread | bound | spread/bound | vs set 1 |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload, sets in results.items():
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, s = spread(values)
                moved = ""
                if first is None:
                    first = med
                else:
                    w = worsening(first, med, m["better"])
                    moved = "%+.3f" % w
                    ok &= w <= bound
                ok &= s <= bound
                print("| %s | %s | %d | %.6g | %.6g | %.6g | %.4f | %.2f | %.2f | %s |" %
                      (workload, name, k + 1, med, q1, q3, s, bound, s / bound, moved))
    print("all spreads and set-to-set moves within bounds" if ok else "SOME METRIC OUT OF BOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
