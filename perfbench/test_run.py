#!/usr/bin/env python3
"""Tests of the benchmark itself: BENCHMARK.json's shape, the result-line
validator, and a smoke run of every workload (tiny, traced and untraced).

    python3 perfbench/test_run.py
"""

import json
import re
import subprocess
import sys
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def result_line(metrics, **overrides):
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {n: {"value": 1.5, "unit": u} for n, u in metrics.items()}}
    result.update(overrides)
    return json.dumps(result)


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertIn(self.spec["run_seconds"], range(1, 61))

    def test_workloads(self):
        workloads = self.spec["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


class ValidateTest(unittest.TestCase):
    expected = {"color_s": "s", "slots_per_s": "1/s"}

    def test_valid(self):
        self.assertEqual(run.validate_result(result_line(self.expected), self.expected), [])

    def test_missing_metric(self):
        line = result_line({"color_s": "s"})
        self.assertTrue(run.validate_result(line, self.expected))

    def test_wrong_unit(self):
        line = result_line({"color_s": "ms", "slots_per_s": "1/s"})
        self.assertTrue(run.validate_result(line, self.expected))

    def test_failed_run(self):
        line = result_line(self.expected, correct=False, failed=1)
        self.assertEqual(len(run.validate_result(line, self.expected)), 2)

    def test_extra_key(self):
        result = json.loads(result_line(self.expected))
        result["seed"] = 1
        self.assertTrue(run.validate_result(json.dumps(result), self.expected))

    def test_not_json(self):
        self.assertTrue(run.validate_result("batch 1: 3.2 s", self.expected))


class SmokeTest(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        out = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--smoke"],
                             capture_output=True, text=True, timeout=900)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        lines = [ln for ln in out.stdout.splitlines() if ln.startswith("smoke ")]
        self.assertEqual(len(lines), 2 * len(run.load_spec()["workloads"]))


if __name__ == "__main__":
    unittest.main()
