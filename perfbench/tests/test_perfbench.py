#!/usr/bin/env python3
"""Smoke and determinism tests of the end-to-end benchmark.

    python3 perfbench/tests/test_perfbench.py      (from the repository root)

Every workload runs at tiny sizes, untraced and traced: each must exit 0,
end with the result object (exactly correct/attempted/failed/metrics), pass
its output checks, and emit every metric BENCHMARK.json names, with its
unit. Each traced workload then runs a second time with the same seed: the
counts later claims may rest on (match.steps, reason.matches_checked,
incr.matches_checked, chase.steps, wal.bytes) must repeat exactly.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ["validate-match", "validate-report", "ingest", "recover",
             "resolve", "analysis"]
COUNTED = {"match.steps", "reason.matches_checked", "incr.matches_checked",
           "chase.steps", "wal.bytes"}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    lines = proc.stdout.strip().splitlines()
    deterministic = {}
    for line in lines[:-1]:
        if line.startswith('{"deterministic"'):
            deterministic = json.loads(line)["deterministic"]
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, deterministic, proc.stderr


class PerfbenchTest(unittest.TestCase):

    def check_result(self, workload, trace, code, result, stderr):
        self.assertEqual(code, 0, f"{workload} trace={trace}: {stderr}")
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _, err = run(workload, trace=0)
                self.check_result(workload, 0, code, result, err)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, f"{workload} {name}")

    def test_traced_counts_repeat_for_a_seed(self):
        seen = set()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, first, err = run(workload, trace=1)
                self.check_result(workload, 1, code, result, err)
                self.assertTrue(first, f"{workload}: no deterministic counts")
                _, _, second, _ = run(workload, trace=1)
                self.assertEqual(first, second, workload)
                seen |= set(first)
        self.assertTrue(COUNTED <= seen, COUNTED - seen)

    def test_unknown_workload_fails_without_a_result(self):
        code, result, _, _ = run("no-such-workload", trace=0)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
