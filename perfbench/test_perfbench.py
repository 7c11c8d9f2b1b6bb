#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny preset scale.

    python3 perfbench/test_perfbench.py

Runs every workload of run.py once untraced and once traced at scale 0.002
and checks that every metric BENCHMARK.json names is reported with its unit
and a finite value, and that no job failed (fail_frac 0).
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.002"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stdout}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        result = run(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, "fail_frac must be 0")
        self.assertTrue(result["correct"])
        metrics = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_workloads(self):
        for name in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    self.check(name, trace)


if __name__ == "__main__":
    unittest.main()
