#!/usr/bin/env python3
"""Tests for tools/dcstat.py.

Fixture-backed: the bench-record tests run against the committed
trajectory records in bench/trajectory/ (the real pre/post PR 5 kernel
measurements), so `dcstat diff` is proven to round-trip actual tool
output and to flag the known 16x/33x/167x kernel wins; perf-report,
telemetry, and trace tests use small synthesized artifacts.

Standard library only; runs with `python3 tools/dcstat_test.py` (no
build needed -- check.sh lint stage and ctest both invoke it that way).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import dcstat  # noqa: E402

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TRAJECTORY = os.path.join(_REPO, "bench", "trajectory")
_PRE_PR5 = os.path.join(_TRAJECTORY, "BENCH_micro_kernels_pre_pr5.json")
_PR5 = os.path.join(_TRAJECTORY, "BENCH_micro_kernels_pr5.json")
_PR6_SCALING = os.path.join(_TRAJECTORY, "BENCH_table2_3_scaling_pr6.json")


def run_dcstat(*argv):
    """Runs dcstat.main, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dcstat.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def write_json(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def perf_report(total, phase_walls):
    phases = [{"name": n, "wall_seconds": w, "cpu_seconds": w,
               "share": w / total if total else 0.0}
              for n, w in phase_walls.items()]
    return {
        "schema_version": 1, "algorithm": "floc", "total_seconds": total,
        "total_cpu_seconds": total, "iterations": 10, "metrics_valid": True,
        "trace_valid": True, "phases": phases, "entries_scanned": 1000,
        "gain_evals_served": 50, "gain_evals_recomputed": 100,
        "entries_per_second": 1000.0 / total if total else 0.0,
        "dense_dispatch_rate": 1.0, "gain_memo_hit_rate": 50.0 / 150.0,
        "pool_sweeps": 0, "pool_shards": 0,
        "shard_imbalance": {"p50": 0, "p90": 0, "p99": 0, "p999": 0,
                            "count": 0},
        "iteration_latency": {"p50": 0.01, "p90": 0.02, "p99": 0.03,
                              "p999": 0.03, "count": 10},
    }


class BenchDiffTest(unittest.TestCase):
    """dcstat diff against the committed PR 5 trajectory records."""

    def parse_ratios(self, stdout):
        ratios = {}
        for line in stdout.splitlines():
            parts = line.split()
            if parts and parts[-1].endswith("x"):
                try:
                    ratios[parts[0]] = float(parts[-1][:-1])
                except ValueError:
                    pass
        return ratios

    def test_flags_known_kernel_wins(self):
        rc, stdout, _ = run_dcstat("diff", _PRE_PR5, _PR5)
        self.assertEqual(rc, 0, stdout)
        ratios = self.parse_ratios(stdout)
        # The PR 5 vectorization wins, as committed to the trajectory:
        # 16x / 33x on the gain-eval kernels, 167x on determination.
        self.assertGreaterEqual(ratios["BM_GainEvalRowToggleTall"], 10.0)
        self.assertGreaterEqual(ratios["BM_GainEvalColToggleWide"], 20.0)
        self.assertGreaterEqual(ratios["BM_GainDetermination/1/real_time"],
                                100.0)

    def test_min_ratio_gate_passes_and_fails(self):
        rc, _, _ = run_dcstat("diff", _PRE_PR5, _PR5,
                              "--min-ratio", "BM_GainEval.*Toggle.*=10")
        self.assertEqual(rc, 0)
        rc, _, err = run_dcstat("diff", _PRE_PR5, _PR5,
                                "--min-ratio", "BM_GainEval.*Toggle.*=1000")
        self.assertEqual(rc, 1)
        self.assertIn("below", err)

    def test_whole_run_rows_round_trip(self):
        # Whole-run records (no "benchmark" key) self-diff at 1.00x under
        # the synthesized run:... names.
        rc, stdout, _ = run_dcstat("diff", _PR6_SCALING, _PR6_SCALING)
        self.assertEqual(rc, 0)
        self.assertIn("run:cols=20/k=10/rows=100", stdout)
        for ratio in self.parse_ratios(stdout).values():
            self.assertAlmostEqual(ratio, 1.0, places=2)


class OverheadTest(unittest.TestCase):
    """The telemetry-overhead gate on the committed PR 5 record
    (Off 33.657 ms vs Full 34.733 ms: a 1.032x ratio)."""

    def test_gate_passes_within_envelope(self):
        rc, stdout, _ = run_dcstat(
            "overhead", _PR5, "--off", "BM_FlocTelemetryOff",
            "--full", "BM_FlocTelemetryFull", "--max-ratio", "1.10")
        self.assertEqual(rc, 0, stdout)
        self.assertIn("OK", stdout)

    def test_gate_fails_beyond_envelope(self):
        rc, _, err = run_dcstat(
            "overhead", _PR5, "--off", "BM_FlocTelemetryOff",
            "--full", "BM_FlocTelemetryFull", "--max-ratio", "1.01")
        self.assertEqual(rc, 1)
        self.assertIn("FAILED", err)

    def test_missing_benchmark_is_usage_error(self):
        rc, _, err = run_dcstat(
            "overhead", _PR5, "--off", "BM_NoSuch", "--full",
            "BM_FlocTelemetryFull")
        self.assertEqual(rc, 2)
        self.assertIn("BM_NoSuch", err)


class PerfReportDiffTest(unittest.TestCase):
    def test_attributes_regression_to_moved_phase(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = write_json(tmp, "base.json", perf_report(
                1.0, {"seeding": 0.1, "move_phase": 0.8, "refine": 0.1}))
            new = write_json(tmp, "new.json", perf_report(
                2.0, {"seeding": 0.1, "move_phase": 1.8, "refine": 0.1}))
            rc, stdout, _ = run_dcstat("diff", base, new)
        self.assertEqual(rc, 0, stdout)
        self.assertIn("regressed", stdout)
        # The whole +1.0 s is move_phase, and the mover list names it.
        move_line = [l for l in stdout.splitlines()
                     if l.strip().startswith("move_phase")][0]
        self.assertIn("100.0%", move_line)
        self.assertIn("phases that moved: move_phase", stdout)
        seed_line = [l for l in stdout.splitlines()
                     if l.strip().startswith("seeding")][0]
        self.assertNotIn("%", seed_line)

    def test_unchanged_run_reports_no_movers(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = write_json(tmp, "base.json",
                              perf_report(1.0, {"move_phase": 0.9}))
            rc, stdout, _ = run_dcstat("diff", base, base)
        self.assertEqual(rc, 0)
        self.assertIn("unchanged", stdout)
        self.assertIn("phases that moved: none", stdout)

    def test_mixed_kind_diff_is_usage_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            report = write_json(tmp, "a.json",
                                perf_report(1.0, {"move_phase": 1.0}))
            rc, _, err = run_dcstat("diff", report, _PR5)
        self.assertEqual(rc, 2)
        self.assertIn("cannot diff", err)


def write_telemetry(path, iterations, seconds):
    """A --telemetry-out stream: one event per iteration, each taking
    `seconds` to determine and twice that to apply, best_so_far falling
    by one per iteration, then run_end."""
    with open(path, "w") as f:
        for i in range(iterations):
            f.write(json.dumps({"event": "iteration", "data": {
                "iteration": i, "best_so_far": 10.0 - i,
                "determine_seconds": seconds,
                "apply_seconds": 2 * seconds}}) + "\n")
        f.write(json.dumps({"event": "run_end", "data": {
            "level": "summary", "total_actions_applied": 40,
            "best_iteration": iterations - 2}}) + "\n")


class TelemetryDiffTest(unittest.TestCase):
    def test_iteration_digest_deltas(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = os.path.join(tmp, "a.jsonl")
            b = os.path.join(tmp, "b.jsonl")
            write_telemetry(a, 4, 0.25)
            write_telemetry(b, 6, 0.5)
            rc, stdout, _ = run_dcstat("diff", a, b)
        self.assertEqual(rc, 0, stdout)
        rows = {line.split()[0]: line.split()[1:]
                for line in stdout.splitlines()[1:]}
        self.assertEqual(rows["iterations"], ["4", "6", "+2"])
        self.assertEqual(rows["best_so_far"], ["7", "5", "-2"])
        self.assertEqual(rows["determine_seconds"], ["1", "3", "+2"])
        self.assertEqual(rows["apply_seconds"], ["2", "6", "+4"])

    def test_stream_without_iterations_is_an_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = os.path.join(tmp, "a.jsonl")
            b = os.path.join(tmp, "b.jsonl")
            write_telemetry(a, 3, 0.25)
            write_telemetry(b, 0, 0.25)
            rc, _, err = run_dcstat("diff", a, b)
        self.assertEqual(rc, 1)
        self.assertIn("need iteration events", err)

    def test_summary_prints_iteration_digest(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.jsonl")
            write_telemetry(path, 4, 0.25)
            rc, stdout, _ = run_dcstat("summary", path)
        self.assertEqual(rc, 0, stdout)
        self.assertIn("5 events, 4 iterations", stdout)
        self.assertIn("best_so_far=7 determine=1s apply=2s", stdout)
        self.assertIn("run_end: level=summary actions=40 best_iteration=2",
                      stdout)


class FlameTest(unittest.TestCase):
    def trace(self):
        # Two threads: the main thread runs a nested pair of spans; a
        # named pool worker runs one. Metadata records mirror
        # TraceRecorder::WriteChromeTrace output.
        return {"displayTimeUnit": "ms", "traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "deltaclus"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3,
             "args": {"name": "pool worker 3"}},
            {"name": "floc/run", "ph": "X", "ts": 0.0, "dur": 1000.0,
             "pid": 1, "tid": 0, "args": {"depth": 0}},
            {"name": "floc/move_phase", "ph": "X", "ts": 10.0, "dur": 600.0,
             "pid": 1, "tid": 0, "args": {"depth": 1}},
            {"name": "floc/iteration", "ph": "X", "ts": 20.0, "dur": 250.0,
             "pid": 1, "tid": 0, "args": {"depth": 2}},
            {"name": "floc/iteration", "ph": "X", "ts": 300.0, "dur": 250.0,
             "pid": 1, "tid": 0, "args": {"depth": 2}},
            {"name": "floc/refine", "ph": "X", "ts": 700.0, "dur": 100.0,
             "pid": 1, "tid": 0, "args": {"depth": 1}},
            {"name": "pool/shard", "ph": "X", "ts": 25.0, "dur": 80.0,
             "pid": 1, "tid": 3, "args": {"depth": 0}},
        ]}

    def test_renders_nested_tree_with_thread_names(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(tmp, "trace.json", self.trace())
            rc, stdout, _ = run_dcstat("flame", path)
        self.assertEqual(rc, 0, stdout)
        lines = stdout.splitlines()
        self.assertIn("tid 0 (main)", stdout)
        self.assertIn("tid 3 (pool worker 3)", stdout)
        # Sibling same-depth spans aggregate: two iterations -> x2.
        iter_line = [l for l in lines if "floc/iteration" in l][0]
        self.assertIn("x2", iter_line)
        self.assertIn("0.500 ms", iter_line)
        # Nesting via indentation: iteration sits under move_phase.
        run_in = [l for l in lines if "floc/run" in l][0].index("floc")
        move_in = [l for l in lines if "move_phase" in l][0].index("floc")
        iter_in = iter_line.index("floc")
        self.assertLess(run_in, move_in)
        self.assertLess(move_in, iter_in)

    def test_rejects_non_trace(self):
        rc, _, err = run_dcstat("flame", _PR5)
        self.assertEqual(rc, 2)
        self.assertIn("not a trace", err)


class SummaryTest(unittest.TestCase):
    def test_detects_every_kind(self):
        with tempfile.TemporaryDirectory() as tmp:
            report = write_json(tmp, "perf.json",
                                perf_report(1.0, {"move_phase": 1.0}))
            jsonl = os.path.join(tmp, "run.jsonl")
            with open(jsonl, "w") as f:
                f.write(json.dumps({"event": "run_end",
                                    "data": {"level": "summary"}}) + "\n")
            trace = write_json(tmp, "trace.json", FlameTest().trace())
            metrics = write_json(tmp, "metrics.json",
                                 {"counters": {"a": 1}, "gauges": {},
                                  "quantile_histograms": {}})
            rc, stdout, _ = run_dcstat("summary", _PR5, report, jsonl,
                                       trace, metrics)
        self.assertEqual(rc, 0, stdout)
        for kind in ("bench", "perf_report", "telemetry", "trace",
                     "metrics"):
            self.assertIn(kind, stdout)

    def test_session_status_digest(self):
        # The exact document shape the CLI's --session-status flag
        # writes (SessionStatus::WriteJson in src/session).
        status = {
            "kind": "session_status", "state": "move_phase",
            "stopped_reason": "iteration_cap", "round": 1,
            "iterations": 7, "best_average_score": 2.5,
            "memo_resident_bytes": 9200, "pane_bytes": 1422,
            "elapsed_seconds": 0.25, "done": False,
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(tmp, "status.json", status)
            rc, stdout, _ = run_dcstat("summary", path)
        self.assertEqual(rc, 0, stdout)
        self.assertIn("session_status", stdout)
        self.assertIn("state=move_phase", stdout)
        self.assertIn("stopped=iteration_cap", stdout)
        self.assertIn("iterations=7", stdout)
        self.assertIn("memo: resident=9200B; panes=1422B", stdout)

    def test_session_status_completed_run(self):
        status = {"kind": "session_status", "state": "done",
                  "stopped_reason": "", "round": 2, "iterations": 12,
                  "best_average_score": 0.6, "memo_resident_bytes": 9200,
                  "pane_bytes": 1422, "elapsed_seconds": 1.5, "done": True}
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(tmp, "status.json", status)
            rc, stdout, _ = run_dcstat("summary", path)
        self.assertEqual(rc, 0, stdout)
        self.assertIn("stopped=none", stdout)
        self.assertIn("done=True", stdout)

    def test_unrecognized_file_is_an_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "junk.txt")
            with open(path, "w") as f:
                f.write("# HELP not_json\n")
            rc, _, err = run_dcstat("summary", path)
        self.assertEqual(rc, 2)
        self.assertIn("dcstat:", err)


if __name__ == "__main__":
    unittest.main()
