#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/test_perfbench.py        (about six minutes)

- Each exactness oracle accepts a clean output and rejects one flipped label
  or one wrong served answer (perfbench --selftest).
- Every run is exact, prints exactly the published metrics, and records the
  population behind each number: no end-to-end timing rests on a single
  sample, no percentile mixes op kinds, and each percentile has at least ten
  samples beyond it.
- setup_s is not a few milliseconds.
- The count metrics repeat exactly across two traced runs with one seed, and
  on a fit the phase spans add up to the traced fit time within the tracing
  overhead.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".bench_build", "perfbench", "runs")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
SEED = 1


def run(workload, trace, seed=SEED):
    """Runs one workload through run.py; returns (result, run record)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds",
           str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s" %
                             (" ".join(cmd), out.returncode, out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    path = os.path.join(RUNS, "run-%s-seed%d-trace%d.json" %
                        (workload, seed, trace))
    with open(path) as f:
        return result, json.load(f)


def percentile_of(name):
    m = re.search(r"_p(\d+)_", name + "_")
    return int(m.group(1)) if m else None


class Oracles(unittest.TestCase):
    def test_each_oracle_rejects_a_corrupted_output(self):
        run("serve_classify", 0)  # builds the binary if needed
        out = subprocess.run([BINARY, "--selftest"], capture_output=True,
                             text=True)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertNotIn("FAIL", out.stdout)
        self.assertEqual(out.stdout.count("ok  "), 8, out.stdout)


class EndToEnd(unittest.TestCase):
    def test_runs_are_exact_and_rest_on_populations(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for w in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=w):
                result, record = run(w, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), names)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                metrics = record["metrics"]
                self.assertGreaterEqual(metrics["setup_s"]["samples"], 3)
                self.assertGreater(metrics["setup_s"]["value"], 0.05,
                                   "setup_s is only a few milliseconds")
                for name in ("p50_ms", "throughput_per_s"):
                    self.assertGreaterEqual(metrics[name]["samples"], 10, name)
                every = dict(metrics)
                every.update(record["extra"])
                for name, m in every.items():
                    p = percentile_of(name)
                    if p is None:
                        continue
                    # One op kind per population, and at least ten samples
                    # beyond the percentile.
                    self.assertNotIn(" and ", m["over"], name)
                    beyond = m["samples"] * (100 - p) / 100.0
                    self.assertGreaterEqual(beyond, 10, name)


class Layers(unittest.TestCase):
    COUNT_PREFIXES = ("murtree.", "index.", "simd.", "engine.", "unionfind.",
                      "incremental.")

    def counts(self, metrics):
        return {k: v["value"] for k, v in metrics.items()
                if k.startswith(self.COUNT_PREFIXES) and
                v["unit"] in ("count", "B", "ops/B", "ratio")}

    def test_counts_repeat_for_a_seed(self):
        for w in ("fit_galaxy3d", "update_churn"):
            with self.subTest(workload=w):
                first, _ = run(w, 1)
                second, _ = run(w, 1)
                self.assertEqual(list(first["metrics"]),
                                 [m["name"] for m in SPEC["per_layer"]])
                a = self.counts(first["metrics"])
                b = self.counts(second["metrics"])
                self.assertTrue(a)
                self.assertEqual(a, b)

    def test_phases_add_up_to_the_traced_fit(self):
        result, record = run("fit_galaxy3d", 1)
        extra = record["extra"]
        overhead = abs(result["metrics"]["trace.overhead_ms"]["value"])
        gap_ms = 1e3 * extra["phase_gap_s"]["value"]
        self.assertGreaterEqual(gap_ms, 0)
        self.assertLessEqual(
            gap_ms, max(overhead, 0.01 * 1e3 * extra["fit_s"]["value"]))


if __name__ == "__main__":
    unittest.main(verbosity=2)
