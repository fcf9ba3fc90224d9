"""Tests of the benchmark itself, on tiny graphs.

    python3 -m unittest discover -s perfbench/tests

Every workload runs untraced and traced at 300 persons: each metric it
prints must be declared in BENCHMARK.json with the same unit, and every
declared metric must be printed. Each deliberate fault must show up as
failed units (a failed_ops_ratio above 0 and "correct": false), never as
a pass.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TINY = ["--persons", "300"]


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), *TINY, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsAreDeclared(unittest.TestCase):
    def check(self, trace, declared):
        want = {m["name"]: m["unit"] for m in declared}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                result = run(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_prints_every_end_to_end_metric(self):
        self.check(0, BENCH["end_to_end"])

    def test_traced_prints_every_per_layer_metric(self):
        self.check(1, BENCH["per_layer"])


class FaultsAreCounted(unittest.TestCase):
    def test_wrong_digest_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, 0, "--fault", "digest")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_violations_left_in_fail(self):
        # An op budget far below the repairs needed stops every repair
        # early, leaving violations in the graph.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, 1, "--fault", "budget")
                self.assertFalse(result["correct"])
                self.assertGreater(result["metrics"]["failed_ops_ratio"]["value"], 0)

    def test_missing_output_fails(self):
        # The binary runs without -o: out.json from an earlier run must
        # not let the iteration pass.
        result = run("kg50k_json_repair", 0, "--fault", "nowrite")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"] - 1)

    def test_wrong_expected_count_fails(self):
        result = run("kg50k_naive_mem", 0, "--expect", "engine.repairs_applied=1")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


class BenchmarkFile(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(
            set(BENCH),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in BENCH["end_to_end"]])
        for m in BENCH["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertIn(m["better"], ("lower", "higher"))

    def test_expected_counts_name_known_counts(self):
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        gated = set(expected["gated"])
        for workload, seeds in expected["counts"].items():
            self.assertIn(workload, WORKLOADS)
            for counts in seeds.values():
                self.assertEqual(set(counts), gated)


if __name__ == "__main__":
    unittest.main()
