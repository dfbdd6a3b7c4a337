#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 hostbench/test_bench.py

Builds the benchmark, runs the output checks' unit tests (each check must
reject a corrupted result), runs every workload at smoke size untraced and
traced, and asserts that each prints exactly the metric names and units
BENCHMARK.json declares. Also asserts that the set-up-only command prints
a set-up time, and that a directory holding only BENCHMARK.json and this
directory fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build(("hostbench", "hostbench_checks_test"))
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def smoke(self, workload, *command):
        """Generates smoke-size inputs, runs `command` on them and returns
        its last line as JSON, and its whole output."""
        exe = os.path.join(self.out, "hostbench")
        data = os.path.join(self.out, "data", "test-" + workload)
        shutil.rmtree(data, ignore_errors=True)
        args = ["--workload", workload, "--seed", "7", "--data", data,
                "--smoke"]
        subprocess.run([exe, "gen", *args], check=True, timeout=60)
        proc = subprocess.run([exe, *command, *args], check=True,
                              capture_output=True, text=True, timeout=120)
        shutil.rmtree(data, ignore_errors=True)
        return json.loads(proc.stdout.strip().split("\n")[-1]), proc.stdout

    def test_output_checks_reject_corrupted_results(self):
        subprocess.run([os.path.join(self.out, "hostbench_checks_test")],
                       check=True, timeout=120)

    def test_smoke_runs_print_every_declared_metric(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, out = self.smoke(workload, "run", "--seconds",
                                             "1", "--trace", str(trace))
                    self.assertEqual(set(result), RESULT_KEYS)
                    self.assertTrue(result["correct"], out)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_setup_command_prints_a_setup_time(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                result, _ = self.smoke(workload, "setup")
                self.assertEqual(set(result), {"setup_s"})
                self.assertGreater(result["setup_s"], 0)

    def test_fails_without_the_library_sources(self):
        stripped = os.path.join(self.out, "stripped")
        shutil.rmtree(stripped, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(stripped, "hostbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), stripped)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "hostbench/run.py", "--workload", "ldpc-decode",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=stripped, env=env, capture_output=True, text=True,
            timeout=180)
        shutil.rmtree(stripped, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
