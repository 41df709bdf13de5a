#!/usr/bin/env python3
"""Tests of the benchmark itself, at the tiny scale so they finish in seconds.

Run from the repository root:  python3 perfbench/test_perfbench.py
(the first run builds reese_perfbench, as perfbench/run.py does).
"""
import json
import os
import shutil
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: build() and paths)

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()
    if BINARY is None:
        raise RuntimeError("perfbench build failed")


def bench(*args):
    """Run reese_perfbench at the tiny scale; returns (exit code, stdout
    lines)."""
    out_dir = os.path.join(run.build_root(), "perfbench-out")
    result = subprocess.run(
        [BINARY, "--scale", "tiny", "--references", run.REFERENCES,
         "--out-dir", out_dir] + [str(arg) for arg in args],
        capture_output=True, text=True, timeout=120)
    return result.returncode, result.stdout.splitlines()


def result_of(lines):
    return json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def test_every_workload_runs_at_a_tiny_budget(self):
        for workload in run.WORKLOADS:
            began = time.monotonic()
            code, lines = bench("--workload", workload, "--seed", 1,
                                "--seconds", 1, "--trace", 0)
            self.assertEqual(code, 0)
            self.assertLess(time.monotonic() - began, 30.0)
            result = result_of(lines)
            self.assertEqual(sorted(result),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"], workload)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            # Seed 1 has committed references at the tiny scale.
            self.assertTrue(any(line.startswith("correctness:") and
                                "0 mismatches" in line and
                                not line.startswith("correctness: 0 ")
                                for line in lines), lines)

    def test_every_named_metric_is_emitted_with_its_unit(self):
        with open(BENCHMARK) as handle:
            spec = json.load(handle)
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = bench("--workload", "spec95", "--seed", 2,
                                "--seconds", 1, "--trace", trace)
            self.assertEqual(code, 0)
            metrics = result_of(lines)["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(sorted(metrics), sorted(expected))
            for name, unit in expected.items():
                self.assertEqual(metrics[name]["unit"], unit, name)
                self.assertIsInstance(metrics[name]["value"], (int, float))

    def test_peak_memory_is_the_benchmarks_own_not_its_launchers(self):
        # getrusage's ru_maxrss survives exec: a launcher holding 64 MB
        # would show up as the benchmark's peak.
        ballast = b"\x01" * (64 << 20)
        code, lines = bench("--workload", "spec95", "--seed", 1,
                            "--seconds", 1, "--trace", 0)
        del ballast
        self.assertEqual(code, 0)
        peak = result_of(lines)["metrics"]["peak_rss_mb"]["value"]
        self.assertLess(peak, 48.0)

    def test_a_perturbed_reference_is_reported_as_a_failure(self):
        code, lines = bench("--workload", "spec95", "--seed", 1,
                            "--seconds", 1, "--trace", 0,
                            "--perturb-reference")
        self.assertEqual(code, 0)
        result = result_of(lines)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_the_same_seed_gives_identical_simulated_stats(self):
        runs = []
        for _ in range(2):
            result = subprocess.run(
                [BINARY, "--scale", "tiny", "--workload", "heldout", "--seed",
                 "3", "--record-references", "--out-dir",
                 os.path.join(run.build_root(), "perfbench-out")],
                capture_output=True, text=True, timeout=120)
            self.assertEqual(result.returncode, 0, result.stderr)
            runs.append(result.stdout)
        self.assertEqual(runs[0], runs[1])
        self.assertIn("heldout tiny 3 fig2 swim franklin\t", runs[0])

    def test_a_different_seed_changes_the_generated_inputs(self):
        digests = {}
        for seed in (1, 1, 2):
            code, lines = bench("--workload", "spec95", "--seed", seed,
                                "--inputs-digest")
            self.assertEqual(code, 0)
            digests.setdefault(seed, set()).add(lines[-1])
        self.assertEqual(len(digests[1]), 1)
        self.assertNotEqual(digests[1], digests[2])

    def test_without_the_sources_it_fails_without_a_result(self):
        scratch = os.path.join(run.build_root(), "perfbench-test-bare")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCHMARK, scratch)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "spec95",
             "--seed", "1", "--seconds", "1"],
            cwd=scratch, env=env, capture_output=True, text=True, timeout=170)
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    unittest.main()
