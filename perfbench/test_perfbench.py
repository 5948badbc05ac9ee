#!/usr/bin/env python3
"""Tests of the wall-clock benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload at tiny size, untraced and traced, and checks that the
result line names exactly the metrics BENCHMARK.json declares, with their
units, and that every check passed. Also checks that a run fails when its
virtual-time digests differ from, or are missing in, the reference, and that
the benchmark fails cleanly when the library sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)


def result(workload, trace):
    r = run(["--workload", workload, "--seed", "5", "--seconds", "0.2",
             "--trace", str(trace), "--tiny"])
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise AssertionError("%s trace=%d exited %d:\n%s\n%s" % (
            workload, trace, r.returncode, r.stdout, r.stderr))
    return json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    def check(self, res, declared):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = result(w, 0)
                self.check(res, SPEC["end_to_end"])
                for name in ("ops_per_s", "setup_s", "peak_rss_mb"):
                    self.assertGreater(res["metrics"][name]["value"], 0, name)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = result(w, 1)
                self.check(res, SPEC["per_layer"])
                self.assertEqual(res["metrics"]["model.mismatches"]["value"], 0)


class ReferenceCheck(unittest.TestCase):
    """A full-size serve_churn run (one round) against edited references."""

    def run_with(self, lines):
        path = os.path.join(ROOT, ".bench_build", "reference-test.txt")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        r = run(["--workload", "serve_churn", "--seed", "42", "--seconds", "0",
                 "--trace", "0", "--reference", path])
        os.remove(path)
        return r, json.loads(r.stdout.strip().splitlines()[-1])

    def setUp(self):
        with open(os.path.join(HERE, "reference.txt")) as f:
            self.lines = [l.rstrip("\n") for l in f]
        self.target = next(i for i, l in enumerate(self.lines)
                           if l.startswith("serve_churn report "))

    def test_reference_passes(self):
        r, res = self.run_with(self.lines)
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertTrue(res["correct"])

    def test_corrupted_digest_fails(self):
        lines = list(self.lines)
        w, k, h = lines[self.target].split()
        lines[self.target] = " ".join([w, k, "0" * 16 if h != "0" * 16 else "1" * 16])
        r, res = self.run_with(lines)
        self.assertNotEqual(r.returncode, 0)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)

    def test_missing_entry_fails(self):
        lines = [l for i, l in enumerate(self.lines) if i != self.target]
        r, res = self.run_with(lines)
        self.assertNotEqual(r.returncode, 0)
        self.assertFalse(res["correct"])


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
