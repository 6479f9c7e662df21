#!/usr/bin/env python3
"""Tiny-size smoke test of the EFES benchmark.

    python3 efesbench/smoke_test.py

Runs every workload at --size tiny and checks that:
  * --trace 0 prints exactly the end-to-end metrics of BENCHMARK.json,
    each with its unit, and every output check passes;
  * --trace 1 prints exactly the per-layer metrics, each with its unit;
  * a corrupted reference fails every op (failed_frac = 1);
  * the probe's C++ sources are clean under efes_lint;
  * in a directory holding only BENCHMARK.json and efesbench/, the
    benchmark exits non-zero without printing a result.
Takes a few minutes, most of it the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark driver, for its metric tables)


def bench(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "efesbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"] + list(extra),
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])

    def test_spec_matches_driver(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_workloads(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                code, result = bench(workload, 0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, self.spec["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                code, result = bench(workload, 1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.check_metrics(result, self.spec["per_layer"])
                self.assertEqual(result["metrics"]["failed_frac"]["value"], 0)
            with self.subTest(workload=workload, corrupt=True):
                code, result = bench(workload, 1, "--corrupt-reference")
                self.assertEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(result["metrics"]["failed_frac"]["value"], 1)

    def test_probe_is_lint_clean(self):
        subprocess.run(["cmake", "--build", run.BUILD, "--target",
                        "efes_lint"], check=True, capture_output=True)
        lint = subprocess.run(
            [os.path.join(run.BUILD, "efes_tools", "efes_lint"),
             os.path.join(HERE, "probe")], capture_output=True, text=True)
        self.assertEqual(lint.returncode, 0, lint.stdout + lint.stderr)

    def test_fails_without_the_program(self):
        bare = os.path.join(run.WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "efesbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = bench("estimate_cold", 0, cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
