"""The benchmark's own test: exact counts repeat, and the contract holds.

    python3 perfbench/selftest.py

Takes about two minutes on two CPUs: five short runs of ``run.py`` plus one
in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_out", "selftest")

# make_crossing_problems(1, seed=1) solved with `ours`, default sizes and solver
BASELINE = {"instance": "cross000", "nodes": [3632], "variables": [5400],
            "iterations": 400, "replays": 542, "backwards": 408}
COUNT_KEYS = ("kind", "instance", "method", "nodes", "variables", "iterations",
              "replays", "backwards", "status", "samples", "best", "epochs", "test_loss")


def bench(cwd, workload, seed, trace, out=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if out:
        cmd += ["--out", out]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def run_record(workload, seed, trace) -> dict:
    out = os.path.join(WORK, f"{workload}-{seed}-{trace}.jsonl")
    if os.path.exists(out):
        os.remove(out)
    proc = bench(ROOT, workload, seed, trace, out)
    if proc.returncode != 0:
        raise AssertionError(f"run failed:\n{proc.stderr}")
    with open(out) as fh:
        return json.loads(fh.readline())


def counts(record) -> list[dict]:
    return [{k: op["counts"].get(k, op.get(k)) for k in COUNT_KEYS
             if k in op["counts"] or k in op} for op in record["ops"]]


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(WORK, exist_ok=True)
        cls.traced = run_record("plan-joint", 1, 1)
        cls.plain = run_record("plan-joint", 1, 0)

    def test_traced_run_reproduces_baseline_counts(self):
        first = next(op for op in self.traced["ops"] if op["kind"] == "plan")
        got = {k: first["counts"].get(k, first.get(k)) for k in BASELINE}
        self.assertEqual(got, BASELINE)
        self.assertTrue(self.traced["result"]["correct"])

    def test_counts_repeat_exactly_for_one_seed(self):
        a, b = counts(self.traced), counts(self.plain)
        n = min(len(a), len(b))
        self.assertGreater(n, 0)
        self.assertEqual(a[:n], b[:n])

    def test_second_seed_has_no_failures(self):
        for workload in ("plan-joint", "plan-frozen", "train"):
            with self.subTest(workload=workload):
                record = run_record(workload, 2, 0)
                self.assertEqual(record["detail"]["failed_frac"]["value"], 0.0)
                self.assertEqual(record["result"]["failed"], 0)
                self.assertTrue(record["result"]["correct"])
                self.assertEqual(set(record["result"]["metrics"]),
                                 {m["name"] for m in bench_spec()["end_to_end"]})

    def test_traced_metrics_match_the_spec(self):
        self.assertEqual(set(self.traced["result"]["metrics"]),
                         {m["name"] for m in bench_spec()["per_layer"]})

    def test_refuses_to_run_without_the_package(self):
        bare = os.path.join(WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "plan-joint", 1, 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    unittest.main()
