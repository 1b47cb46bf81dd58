#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs.

    python3 perfbench/tests/test_perfbench.py

- Every correctness check must catch a real error: with one bit of the
  reference flipped, each workload's run must fail.
- Every metric that BENCHMARK.json names must print, with its unit,
  in the result line and in the human-readable lines.
- The traced run's trace file must load as Chrome trace JSON.
- Without the repository's sources the benchmark must fail without
  printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra, cwd=ROOT, trace=0):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def result(lines):
    return json.loads(lines[-1])


class CorruptedReferenceFails(unittest.TestCase):
    def test_each_workload_catches_one_flipped_bit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, _ = run(workload, "--tiny", "--corrupt-reference")
                self.assertNotEqual(code, 0)
                res = result(lines)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertTrue(any(l.startswith("CHECK FAILED") for l in lines))


class MetricsPrint(unittest.TestCase):
    def check_metrics(self, lines, specs):
        res = result(lines)
        self.assertTrue(res["correct"], "\n".join(lines))
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(res["metrics"]), [m["name"] for m in specs])
        for m in specs:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            human = [l for l in lines[:-1] if l.split()[:1] == [m["name"]]]
            self.assertEqual(len(human), 1, m["name"])
            self.assertEqual(human[0].split()[-1], m["unit"], m["name"])

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, err = run(workload, "--tiny")
                self.assertEqual(code, 0, err)
                self.check_metrics(lines, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result(lines)["metrics"][m["name"]]["value"], 0)
                self.assertTrue(any(l.startswith("fail_frac ") for l in lines))
                self.assertTrue(any(l.startswith("samples: ") for l in lines))

    def test_per_layer_metrics_and_trace_file(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, err = run(workload, "--tiny", trace=1)
                self.assertEqual(code, 0, err)
                self.check_metrics(lines, SPEC["per_layer"])
                metrics = result(lines)["metrics"]
                self.assertGreater(metrics["pc.parse_ms"]["value"], 0)
                self.assertGreater(metrics["flat.upward_us_per_row_b64"]["value"], 0)
                self.assertEqual(metrics["client.retries"]["value"], 0)
                self.assertEqual(metrics["client.transport_errors"]["value"], 0)
                path, spans = next(l.split()[1:3] for l in lines
                                   if l.startswith("trace: "))
                events = json.loads(Path(path).read_text())["traceEvents"]
                self.assertEqual(len(events), int(spans.lstrip("(")))
                ids = {e["args"]["span"] for e in events}
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["dur"], 0)
                    parent = e["args"]["parent"]
                    self.assertTrue(parent == 0 or parent in ids, e)


class NoSourcesNoResult(unittest.TestCase):
    def test_bare_directory_fails_without_result(self):
        bare = ROOT / ".bench_build" / "test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH_DIR.rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                target = bare / "perfbench" / path.relative_to(BENCH_DIR)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(path, target)
        try:
            code, lines, _ = run(WORKLOADS[0], cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(l.startswith("{") for l in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
