"""Smoke-size self-test of the benchmark: every workload, both modes.

Runs each workload on a tiny database (``--transactions``) for one
second, untraced and traced, and checks that the result line is well
formed, that every answer was right, and that every metric named in
``BENCHMARK.json`` is emitted.  Takes about a minute::

    python3 -m pytest perfbench/test_smoke.py
    python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--seconds", "1", "--transactions", "3000", "--queries", "6"]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class SmokeTest(unittest.TestCase):
    def check(self, workload: str, trace: int, expected) -> None:
        proc = run_bench(
            ROOT, "--workload", workload, "--seed", "3", "--trace", str(trace), *SMOKE
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        names = {metric["name"]: metric["unit"] for metric in expected}
        self.assertEqual(set(result["metrics"]), set(names))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], names[name])
            self.assertIsInstance(metric["value"], (int, float))
            self.assertIn(name, proc.stdout.split("record:")[0])

    def test_every_workload_emits_every_metric(self) -> None:
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"], trace=0):
                self.check(workload["name"], 0, SPEC["end_to_end"])
            with self.subTest(workload=workload["name"], trace=1):
                self.check(workload["name"], 1, SPEC["per_layer"])

    def test_fails_without_the_program(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(
                    ROOT / path, Path(tmp) / path,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"),
                )
            workload = SPEC["workloads"][0]["name"]
            proc = run_bench(Path(tmp), "--workload", workload, "--seed", "1", *SMOKE)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
