#!/usr/bin/env python3
"""The benchmark's own tests.

Runs every workload on a tiny input, untraced and traced, through
perfbench/run.py, and checks that each run is correct (error rate 0)
and prints every metric BENCHMARK.json names, with its unit.

Usage (from the root of a checkout):  python3 perfbench/test_perfbench.py
The Rust unit tests run with:  cargo test --manifest-path perfbench/Cargo.toml
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=1):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{done.stderr[-3000:]}"
    return done.returncode, lines, json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    def check(self, trace, declared):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                code, lines, result = run(w["name"], trace)
                self.assertEqual(code, 0, "\n".join(lines[-20:]))
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertTrue(any(l.startswith("error_rate ") and " 0.0000 " in l
                                    for l in lines), "error_rate line missing or non-zero")
                metrics = result["metrics"]
                self.assertEqual(sorted(metrics), sorted(m["name"] for m in declared))
                for m in declared:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
                    self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
                    # The human-readable line carries the same name and unit.
                    self.assertTrue(any(l.split()[:1] == [m["name"]] and l.split()[2] == m["unit"]
                                        for l in lines), f"no line for {m['name']}")

    def test_end_to_end_metrics_printed_with_units(self):
        self.check(0, BENCH["end_to_end"])

    def test_per_layer_metrics_printed_with_units(self):
        self.check(1, BENCH["per_layer"])

    def test_same_seed_same_checkpoint_bytes(self):
        a = run("serve_ingest", 0, seed=5)[2]["metrics"]["checkpoint_bytes"]["value"]
        b = run("serve_ingest", 0, seed=5)[2]["metrics"]["checkpoint_bytes"]["value"]
        self.assertEqual(a, b)

    def test_bad_arguments_exit_nonzero_without_result(self):
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "nope",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
