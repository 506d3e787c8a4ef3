"""Tests of the benchmark's Python side: result-line shape, BENCHMARK.json
limits, and the steadiness arithmetic.

    python3 -m unittest discover -s perfbench/tests

The C++ helpers (percentiles, span self time, metric names, JSON line) are
tested by perfbench_test; see perfbench/README.md.
"""

import json
import os
import re
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import steadiness  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def result(metrics, **kw):
    r = {"correct": True, "attempted": 10, "failed": 0,
         "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    r.update(kw)
    return r


class CheckResultTest(unittest.TestCase):
    expected = {"latency_p50_ms": "ms", "setup_s": "s"}

    def test_valid(self):
        r = result({"latency_p50_ms": (1.25, "ms"), "setup_s": (0.5, "s")})
        self.assertEqual(run.check_result(r, self.expected), [])

    def test_round_trips_through_json(self):
        r = result({"latency_p50_ms": (1.25, "ms"), "setup_s": (0.5, "s")})
        self.assertEqual(run.check_result(json.loads(json.dumps(r)), self.expected), [])

    def test_extra_or_missing_key(self):
        r = result({"latency_p50_ms": (1.0, "ms"), "setup_s": (0.5, "s")})
        r["extra"] = 1
        self.assertTrue(run.check_result(r, self.expected))
        del r["extra"]
        del r["failed"]
        self.assertTrue(run.check_result(r, self.expected))

    def test_metric_set_and_units(self):
        missing = result({"latency_p50_ms": (1.0, "ms")})
        self.assertTrue(run.check_result(missing, self.expected))
        wrong_unit = result({"latency_p50_ms": (1.0, "s"), "setup_s": (0.5, "s")})
        self.assertTrue(run.check_result(wrong_unit, self.expected))

    def test_counts_are_whole_numbers(self):
        ok = {"latency_p50_ms": (1.0, "ms"), "setup_s": (0.5, "s")}
        self.assertTrue(run.check_result(result(ok, attempted=0), self.expected))
        self.assertTrue(run.check_result(result(ok, failed=1.5), self.expected))
        self.assertTrue(run.check_result(result(ok, correct="yes"), self.expected))

    def test_values_are_numbers(self):
        r = result({"latency_p50_ms": ("1.0", "ms"), "setup_s": (0.5, "s")})
        self.assertTrue(run.check_result(r, self.expected))


class BenchmarkSpecTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(self.spec["paths"], ["perfbench"])

    def test_names_units_and_bounds(self):
        names = []
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = bounds["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in bounds.values()))

    def test_run_budget(self):
        # 4 + 22 runs per workload, each measuring run_seconds plus set-up,
        # replay and the last unfinished round, must leave room for two
        # builds inside 3420 s.
        runs = 4 + 22 * len(self.spec["workloads"])
        self.assertLess(runs * (self.spec["run_seconds"] + 20) + 2 * 200, 3420)


class SteadinessTest(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        med, q1, q3, s = steadiness.spread(values)
        eq1, _, eq3 = statistics.quantiles(values, n=4)
        self.assertEqual((med, q1, q3), (statistics.median(values), eq1, eq3))
        self.assertAlmostEqual(s, (eq3 - eq1) / med)

    def test_plan_interleaves_the_sets(self):
        runs = steadiness.plan(["a", "b"])
        self.assertEqual(runs[:4], [("a", 0, 1), ("b", 0, 1), ("a", 1, 101), ("b", 1, 101)])
        self.assertEqual(len(runs), 2 * 2 * steadiness.SEEDS)
        for k in (0, 1):
            seeds = [s for w, j, s in runs if w == "a" and j == k]
            self.assertEqual(len(set(seeds)), steadiness.SEEDS)

    def test_worsening_direction(self):
        self.assertAlmostEqual(steadiness.worsening(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(steadiness.worsening(100.0, 110.0, "higher"), -0.10)
        self.assertAlmostEqual(steadiness.worsening(100.0, 90.0, "higher"), 0.10)


if __name__ == "__main__":
    unittest.main()
