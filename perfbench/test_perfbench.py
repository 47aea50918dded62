"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke tests build perfbench_driver (under .bench_build/) the first
time they run.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


class PercentileRuleTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(benchlib.min_samples(0.9), 100)
        self.assertEqual(benchlib.samples_beyond(0.9, 100), 10)
        self.assertEqual(benchlib.samples_beyond(0.9, 99), 9)
        with self.assertRaises(benchlib.TooFewSamples):
            benchlib.percentile(list(range(99)), 0.9)
        self.assertEqual(benchlib.percentile(list(range(100)), 0.9), 89)

    def test_median_needs_twenty(self):
        self.assertEqual(benchlib.min_samples(0.5), 20)
        self.assertEqual(benchlib.percentile(list(range(20, 0, -1)), 0.5), 10)
        with self.assertRaises(benchlib.TooFewSamples):
            benchlib.percentile(list(range(19)), 0.5)

    def test_fastest_share(self):
        self.assertEqual(benchlib.fastest([5, 1, 4, 2, 3], 0.5), [1, 2, 3])
        self.assertEqual(benchlib.fastest([3, 1], 0.1), [1])
        self.assertEqual(benchlib.fastest([], 0.5), [])
        jobs = [{"wall": 2.0}, {"wall": 1.0}]
        self.assertEqual(benchlib.fastest(jobs, 0.5, key=lambda j: j["wall"]),
                         [{"wall": 1.0}])

    def test_rank_is_clamped(self):
        self.assertEqual(benchlib.nearest_rank(0.0, 5), 1)
        self.assertEqual(benchlib.nearest_rank(1.0, 5), 5)
        self.assertEqual(benchlib.samples_beyond(0.9, 0), 0)


class NameCharsetTest(unittest.TestCase):
    def test_names(self):
        for good in ("mine_s", "core.memo_hit_rate", "step_s_p90", "9a", "a-b",
                     "x" * 64):
            self.assertTrue(benchlib.valid_name(good), good)
        for bad in ("", "_mine", ".a", "a b", "a/b", "mine%", "x" * 65, "é"):
            self.assertFalse(benchlib.valid_name(bad), bad)

    def test_units(self):
        for good in ("s", "ms", "1/s", "%", "MB", "count", "ratio", "x" * 16):
            self.assertTrue(benchlib.valid_unit(good), good)
        for bad in ("", "a b", "x" * 17, "s;"):
            self.assertFalse(benchlib.valid_unit(bad), bad)

    def test_benchmark_json_follows_the_rules(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        names = [w["name"] for w in bench["workloads"]]
        names += [x["name"] for x in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(benchlib.valid_name(name), name)
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for x in bench["end_to_end"]:
            self.assertEqual(set(x), {"name", "unit", "better", "bound"})
            self.assertTrue(benchlib.valid_unit(x["unit"]), x["unit"])
            self.assertLessEqual(x["bound"], 0.25)
        for x in bench["per_layer"]:
            self.assertEqual(set(x), {"name", "unit", "better"})
            self.assertTrue(benchlib.valid_unit(x["unit"]), x["unit"])
        setup = [x for x in bench["end_to_end"] if x["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(x["bound"] for x in bench["end_to_end"]))


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


class SelfTimeTest(unittest.TestCase):
    def test_parent_minus_covered_children(self):
        spans = [
            span("job", 0.0, 10.0, -1),
            span("a", 1.0, 3.0, 0),
            span("b", 2.0, 5.0, 0),   # overlaps a: [1, 5] counted once
            span("c", 9.0, 12.0, 0),  # clipped to the parent's end
            span("a.inner", 1.5, 2.5, 1),
        ]
        self.assertEqual(benchlib.self_times(spans), [5.0, 1.0, 3.0, 3.0, 1.0])
        self.assertAlmostEqual(benchlib.coverage(spans), 0.5)
        self.assertEqual(benchlib.self_time_by_name(spans)["a"], 1.0)

    def test_leaf_and_disjoint_children(self):
        spans = [span("job", 0.0, 4.0, -1), span("x", 0.0, 1.0, 0),
                 span("x", 3.0, 4.0, 0)]
        self.assertEqual(benchlib.self_times(spans), [2.0, 1.0, 1.0])
        self.assertEqual(benchlib.self_time_by_name(spans)["x"], 2.0)
        self.assertEqual(benchlib.union_length([]), 0.0)


class SmokeTest(unittest.TestCase):
    """Each workload end to end at a tiny size, untraced and traced."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_workloads(self):
        bench = load_benchmark()
        for workload in [w["name"] for w in bench["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = self.run_bench(workload, trace)
                    self.assertEqual(set(out), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    want = {x["name"]: x["unit"] for x in bench[key]}
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
