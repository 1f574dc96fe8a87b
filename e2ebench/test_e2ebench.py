#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 e2ebench/test_e2ebench.py

Builds the benchmark (as run.py does), then checks that
  * the same seed generates byte-identical inputs and another seed
    different ones, for every workload at full size;
  * a reduced-size smoke run of every workload, untraced and traced,
    passes its correctness gate and prints exactly the metrics
    BENCHMARK.json declares, with their units;
  * every metric name matches [A-Za-z0-9_.-]+.
"""
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class E2eBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = bench.build()
        cls.spec = declared()

    def run_exe(self, *args):
        out = subprocess.run([self.exe, *args], capture_output=True, text=True, timeout=170)
        self.assertEqual(out.returncode, 0, out.stderr)
        return out.stdout

    def inputs(self, workload, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "inputs")
            self.run_exe("--workload", workload, "--seed", str(seed), "--dump-inputs", path)
            with open(path, "rb") as f:
                return f.read()

    def test_seed_determines_inputs(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.inputs(workload, 11)
                self.assertGreater(len(first), 0)
                self.assertEqual(first, self.inputs(workload, 11))
                self.assertNotEqual(first, self.inputs(workload, 12))

    def test_smoke_runs_pass_their_gates(self):
        for workload in bench.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines = self.run_exe("--workload", workload, "--seed", "3", "--seconds", "1",
                                         "--trace", str(trace), "--scale", "smoke").splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], "\n".join(lines))
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    self.assertTrue(any(l.startswith("fingerprint {") for l in lines))
                    self.assertTrue(any(l.startswith("env {") for l in lines))

    def test_metric_names(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in self.spec[key]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(bench.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
