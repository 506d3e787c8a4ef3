#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ingest_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build): perfbench/CMakeLists.txt compiles the program's libraries from
src/ plus the harness, Release mode. Everything the run writes stays under that
directory. The last line of standard output is the JSON result, checked here
against BENCHMARK.json before it is printed. Exits 1 when the program sources
are missing, the build fails, or the run does not produce a valid result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_cold", "fleet_recurring")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def expected_metrics(trace):
    """{name: unit} the result must carry, from BENCHMARK.json (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Returns the problems with one parsed result line (empty when valid)."""
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys must be exactly %s" % sorted(RESULT_KEYS)]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append("metric %s is not {value, unit}" % name)
        elif not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            problems.append("metric %s has no numeric value" % name)
    if expected is not None:
        if set(metrics) != set(expected):
            missing = sorted(set(expected) - set(metrics))
            extra = sorted(set(metrics) - set(expected))
            problems.append("metric names differ: missing %s, unexpected %s" % (missing, extra))
        for name, unit in expected.items():
            if name in metrics and isinstance(metrics[name], dict) and metrics[name].get("unit") != unit:
                problems.append("metric %s has unit %r, not %r" % (name, metrics[name].get("unit"), unit))
    return problems


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources under %s/src; nothing to build" % ROOT)
        return None
    binary = os.path.join(build_dir, "perfbench")
    try:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        jobs = str(min(os.cpu_count() or 1, 4))
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log("build failed: %s" % e)
        return None
    return binary


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1
    scratch = os.path.join(build_dir, "perfbench-tmp", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--scratch", scratch]
    if args.trace:
        cmd += ["--spans-out", os.path.join(build_dir, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log("run exited with code %d" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not JSON: %r" % lines[-1][:200])
        return 1
    problems = check_result(result, expected_metrics(args.trace == 1))
    if problems:
        for p in problems:
            log(p)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
