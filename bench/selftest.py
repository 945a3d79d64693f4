"""Tests of the benchmark itself (not of peritl).

    python3 bench/selftest.py

Checks that inputs are a function of the seed, that generated expectations
agree with the benchmark's own rules, that the oracle reproduces documented
examples, and that a tiny run of every workload, untraced and traced, passes
its output checks and prints exactly the metrics BENCHMARK.json names.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_rounds(workload, seed, n):
    return list(itertools.islice(workloads.WORKLOADS[workload](seed), n))


def input_digest(workload, seed, n):
    return hashlib.sha256(repr(first_rounds(workload, seed, n)).encode()).hexdigest()


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                a = input_digest(name, 3, 20)
                self.assertEqual(a, input_digest(name, 3, 20))
                self.assertNotEqual(a, input_digest(name, 4, 20))

    def test_workload_names_match_spec(self):
        self.assertEqual(
            sorted(w["name"] for w in SPEC["workloads"]), sorted(workloads.WORKLOADS)
        )


class Expectations(unittest.TestCase):
    def test_normal_forms_follow_the_strict_decrease_rule(self):
        for rnd in first_rounds("algebra-queries", 5, 200):
            for kind, family, payload, expected in rnd:
                if kind == "normalize" and family == "fcs":
                    w = tuple(tuple(iv) for iv in expected)
                    self.assertTrue(oracle.fcs_ok(w), w)
                    self.assertEqual(set(payload), set(oracle.fcs_letters(w)))
                elif kind == "normalize":
                    self.assertIsNone(expected)
                    self.assertTrue(any(a == b for a, b in zip(payload, payload[1:])))
                elif kind == "multiply":
                    for w in expected:
                        self.assertTrue(oracle.fcs_ok(w), w)
                elif kind == "witness":
                    self.assertTrue(oracle.is_partition(tuple(expected["partition"])))
                    self.assertTrue(expected["image"])

    def test_algebra_windows_stay_narrow_enough(self):
        for rnd in first_rounds("algebra-queries", 6, 900):
            for kind, _, payload, _ in rnd:
                if kind == "normalize":
                    self.assertLessEqual(max(payload) - min(payload) + 1, max(workloads.WIDTHS))

    def test_shape_inputs_are_partitions(self):
        for rnd in first_rounds("shape-queries", 5, 10):
            for kind, _, payload, _ in rnd:
                lam = payload[0] if kind == "inverse" else payload
                self.assertTrue(oracle.is_partition(lam), lam)
                if kind == "inverse":
                    self.assertLessEqual(sum(lam), 25)
                    self.assertEqual(payload[1], oracle.cell_index(lam))

    def test_verify_requests_use_pinned_seeds(self):
        rounds = first_rounds("verify-sweep", 15, 3)
        seeds = [rnd[0][2][-1] for rnd in rounds]
        self.assertEqual(seeds, ["15", "0", "1"])


class Oracle(unittest.TestCase):
    def test_documented_examples(self):
        self.assertEqual(oracle.dominant_weight((2, 2, 1, 1)), (2, (-2, -4)))
        self.assertEqual(oracle.dominant_weight((3, 2, 1)), (3, (-1, -2, -3)))
        self.assertEqual(oracle.d_set((1, 1, 1)), {-3})
        self.assertEqual(oracle.cell_index((3, 2, 2, 2)), 3)
        self.assertEqual(oracle.two_core_index((3, 1)), 0)
        self.assertEqual(oracle.two_core_index((3, 2, 1)), 3)
        self.assertEqual(oracle.transpose((3, 1)), (2, 1, 1))
        self.assertEqual(
            oracle.witness({((0, 0),): 1}),
            {"partition": [1, 1], "image": [{"partition": [1], "coeff": 1}]},
        )
        self.assertEqual(oracle.plain_action((2, 1), [2]), {(3, 1): 1, (1, 1): 1})

    def test_tensor_row_check_accepts_and_rejects(self):
        self.assertIsNone(oracle.tensor_rows_error((1,), [(1, (2,)), (-1, (1, 1))]))
        rows = [(3, (4, 3)), (2, (3, 2)), (0, (3, 2)), (-1, (2, 1)), (-2, (3, 3, 1))]
        self.assertIsNone(oracle.tensor_rows_error((3, 3), rows))
        self.assertIsNotNone(oracle.tensor_rows_error((1,), [(1, (2,))]))
        unbalanced = rows[:3] + [(-1, (3,))] + rows[4:]
        self.assertIsNotNone(oracle.tensor_rows_error((3, 3), unbalanced))
        self.assertIsNotNone(oracle.tensor_rows_error((3, 3), rows[::-1]))


class SmokeRuns(unittest.TestCase):
    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_untraced(self):
        names = sorted(m["name"] for m in SPEC["end_to_end"])
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                res = self.run_bench(name, 0)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertEqual(res["metrics"]["ok_ratio"]["value"], 1.0)
                self.assertEqual(sorted(res["metrics"]), names)

    def test_traced_run_reports_every_layer_metric(self):
        res = self.run_bench("shape-queries", 1)
        self.assertTrue(res["correct"])
        self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in SPEC["per_layer"]))


if __name__ == "__main__":
    unittest.main()
