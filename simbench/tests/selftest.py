#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

    python3 simbench/tests/selftest.py

Runs every workload at a tiny size through simbench/run.py (building
it first if needed) and checks the result line against BENCHMARK.json:
every end-to-end metric untraced, every per-layer metric traced, each
with its unit, and no failed cell. Then alters one reference of a
traced replay and checks that the run counts the cell as failed.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "simbench", "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(*args):
    proc = subprocess.run(RUN + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def check_metrics(self, got, expected):
        self.assertEqual(set(got), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            value = got[m["name"]]["value"]
            self.assertIsInstance(value, (int, float), m["name"])
            self.assertTrue(math.isfinite(value), m["name"])

    def test_every_workload_prints_every_metric(self):
        for workload in BENCHMARK["workloads"]:
            for trace, expected in (("0", BENCHMARK["end_to_end"]),
                                    ("1", BENCHMARK["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = run("--workload", workload["name"],
                               "--seed", "42", "--seconds", "0",
                               "--trace", trace, "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = result(proc)
                    self.assertTrue(res["correct"], proc.stdout)
                    self.assertEqual(res["failed"], 0, proc.stdout)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertIn("metric failed_frac 0 fraction",
                                  proc.stdout)
                    self.check_metrics(res["metrics"], expected)

    def test_altered_reference_counts_as_failed(self):
        proc = run("--workload", "mix-morph", "--seconds", "0",
                   "--trace", "0", "--tiny", "--corrupt-replay")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result(proc)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1, proc.stdout)
        self.assertIn("traced replay digest differs", proc.stdout)

    def test_unknown_workload_prints_no_result(self):
        proc = run("--workload", "no-such-workload", "--seconds", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
