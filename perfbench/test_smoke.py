#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/test_smoke.py

Run from the repository root. Runs every workload in BENCHMARK.json at
smoke size, untraced and traced, and asserts that each run passes its
output checks, exits 0 and emits exactly the metrics BENCHMARK.json names,
each with its declared unit.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    out = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout.strip().splitlines(), out.stderr


class SmokeTest(unittest.TestCase):
    def check(self, trace, declared):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                code, lines, err = run(workload, trace)
                self.assertEqual(code, 0, err[-2000:])
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(units, {m["name"]: m["unit"] for m in declared})
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])

    def test_refuses_a_tree_without_sources(self):
        code, lines, _ = run_elsewhere()
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith('{"correct"') for line in lines))


def run_elsewhere():
    """The benchmark in a directory holding only BENCHMARK.json and the
    benchmark's own files must fail without printing a result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path)
        out = subprocess.run(
            [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
        return out.returncode, out.stdout.splitlines(), out.stderr


if __name__ == "__main__":
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    sys.exit(unittest.main(verbosity=2))
