#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Each workload run.py knows, at tiny windows, must pass its
correctness checks and print exactly the metric names (with units)
that BENCHMARK.json declares: the end-to-end set untraced, the
per-layer set traced. That includes fleet_storm, which
BENCHMARK.json does not list because the partitioned core it runs on
has a known data race; when that race strikes, the fleet_storm case
fails, and the failure is the simulator's.
The benchmark must also refuse to run, without printing a result,
from a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, cwd=ROOT, script=RUN):
    p = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=cwd, timeout=900)
    return p


class WorkloadTest(unittest.TestCase):
    def check(self, workload, trace, declared):
        p = bench(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], p.stdout[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(got, want)
        for k, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), k)
        return result["metrics"]

    def test_workloads(self):
        listed = {w["name"] for w in SPEC["workloads"]}
        self.assertLessEqual(listed, set(WORKLOADS))
        for w in WORKLOADS:
            with self.subTest(workload=w):
                e2e = self.check(w, 0, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(e2e[m["name"]]["value"], 0,
                                       m["name"])
                self.check(w, 1, SPEC["per_layer"])


class IsolatedTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        if not os.path.isabs(base):
            base = os.path.join(ROOT, base)
        iso = os.path.join(base, "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
        shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = bench("net_flood", 0, cwd=iso,
                  script=os.path.join(iso, "perfbench", "run.py"))
        shutil.rmtree(iso, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
