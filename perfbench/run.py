#!/usr/bin/env python3
"""The repository benchmark: one mining workload per run.

    python3 perfbench/run.py --workload dense-fresh --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. It builds perfbench_driver (the library
from ../src plus perfbench/driver.cc) under .bench_build/, generates the
workload's inputs from --seed in a separate process, runs the measuring
process, checks its outputs, and prints the metrics: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
run's identity and sample counts. Exits non-zero, printing no result,
when perfbench_driver cannot be built or run.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DATA_DIR = ROOT / ".bench_build" / "data"
DRIVER = BUILD_DIR / "perfbench_driver"

WORKLOADS = ("dense-fresh", "sparse-resume")
# Seeds: 1 is the default for tuning and everyday runs; 1009 is held out
# to confirm a claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
# After the build, a run must end within 180 s: the measuring process
# gets what is left after input generation, and stops its timed loop
# well before that.
RUN_BUDGET_S = 170.0
STEP_QUANTILE = 0.9
# The job and step timings come from the fastest quarter of each
# instance's timed jobs. Other tenants of the host slow this process by
# up to 1.8x for tens of seconds at a time; contention only ever slows a
# job, so the fastest jobs track the program and the slowest ones track
# the neighbours. Over 30 s windows of one 150 s run of 0.3 s jobs, the
# median of all job walls spread 23% (IQR/median), the median of these
# fast jobs 6%.
FAST_SHARE = 0.25


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def call(cmd, timeout, capture=False):
    """Runs cmd to completion (killing it on timeout) with its stdout on
    our stderr unless captured."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("%s: %s" % (cmd[0], e))
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    return proc.stdout


def build():
    if not (HERE / "driver.cc").exists() or not (ROOT / "src").is_dir():
        raise BenchError("library sources not found next to perfbench/")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        call(cmd, timeout=120)
    jobs = str(min(4, os.cpu_count() or 1))
    call(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_driver",
          "-j", jobs], timeout=600)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# Metrics from perfbench_driver's raw document.

def m(value, unit):
    return {"value": value, "unit": unit}


def cpu_per_wall(jobs):
    moves = [s for j in jobs for s in j["steps"] if s["kind"] == "move"]
    wall = sum(s["wall"] for s in moves)
    return sum(s["cpu"] for s in moves) / wall if wall > 0 else 0.0


def setup_samples(doc):
    """Per set-up sample: its total and the self time of each layer."""
    spans = doc["setup_spans"]
    selves = benchlib.self_times(spans)
    samples = []
    for i, s in enumerate(spans):
        if s["parent"] == -1:
            samples.append({"setup": s["end"] - s["start"]})
        else:
            samples[-1][s["name"]] = selves[i]
    return samples


def fast_jobs(jobs):
    """The fastest FAST_SHARE of each instance's jobs (at least one), so
    every instance weighs the same whichever instances happen to be
    quick."""
    by_instance = {}
    for j in jobs:
        by_instance.setdefault(j["instance"], []).append(j)
    return [j for i in sorted(by_instance)
            for j in benchlib.fastest(by_instance[i], FAST_SHARE,
                                      key=lambda j: j["wall"])]


def fast_steps(jobs):
    return [s["wall"] for j in fast_jobs(jobs) for s in j["steps"]]


def end_to_end(doc, jobs):
    walls = [j["wall"] for j in fast_jobs(jobs)]
    steps = fast_steps(jobs)
    setups = setup_samples(doc)
    attempted = len(jobs)
    ok = sum(1 for j in jobs if j["ok"])
    return {
        "mine_s": m(benchlib.median(walls), "s"),
        "step_s_p50": m(benchlib.median(steps), "s"),
        "step_s_p90": m(benchlib.percentile(steps, STEP_QUANTILE), "s"),
        "setup_s": m(benchlib.median([s["setup"] for s in setups]), "s"),
        "peak_rss_mb": m(doc["peak_rss_kb"] / 1024.0, "MB"),
        "success_ratio": m(ok / attempted if attempted else 0.0, "ratio"),
    }


def per_layer(doc, traced, plain):
    setups = setup_samples(doc)

    def setup_layer(name):
        return benchlib.median([s.get(name, 0.0) for s in setups])

    span_self = [benchlib.self_time_by_name(j["spans"]) for j in traced]

    def span_layer(name):
        return benchlib.median([t.get(name, 0.0) for t in span_self])

    def core(key):
        return benchlib.median([j["core"][key] for j in traced])

    lookups = [j["core"]["memo_served"] + j["core"]["memo_recomputed"]
               for j in traced]
    hit_rates = [j["core"]["memo_served"] / n if n else 0.0
                 for j, n in zip(traced, lookups)]
    checkpoint_bytes = [b for j in traced for b in j["checkpoint_bytes"]]
    first_warmup = doc["warmups"][0]
    return {
        "data.csv_parse_s": m(setup_layer("data.csv_parse"), "s"),
        "storage.dcm_write_s": m(setup_layer("storage.dcm_write"), "s"),
        "storage.dcm_open_s": m(setup_layer("storage.dcm_open"), "s"),
        "session.start_s": m(span_layer("session.start"), "s"),
        "session.finish_s": m(span_layer("session.finish"), "s"),
        "session.move_s": m(span_layer("session.move"), "s"),
        "session.refine_s": m(span_layer("session.refine"), "s"),
        "session.reseed_s": m(span_layer("session.reseed"), "s"),
        "session.steps": m(benchlib.median([len(j["steps"]) for j in traced]),
                           "count"),
        "session.checkpoint_s": m(span_layer("session.checkpoint"), "s"),
        "session.checkpoint_bytes": m(benchlib.median(checkpoint_bytes),
                                      "bytes"),
        "session.resume_s": m(span_layer("session.resume"), "s"),
        "session.warmup_job_s": m(first_warmup["wall"], "s"),
        "core.determine_s": m(core("determine_s"), "s"),
        "core.apply_s": m(core("apply_s"), "s"),
        "core.entries_scanned": m(core("entries_scanned"), "count"),
        "core.dense_dispatch_rate": m(core("dense_dispatch_rate"), "ratio"),
        "core.memo_hit_rate": m(benchlib.median(hit_rates), "ratio"),
        "core.memo_lookups": m(benchlib.median(lookups), "count"),
        "core.pane_patches": m(core("pane_patches"), "count"),
        "core.pane_rebuilds": m(core("pane_rebuilds"), "count"),
        "core.clusters_skipped_clean": m(core("clusters_skipped_clean"),
                                         "count"),
        "core.iterations": m(benchlib.median([j["iterations"] for j in traced]),
                             "count"),
        "engine.cpu_per_wall": m(cpu_per_wall(traced), "ratio"),
        "engine.warmup_cpu_per_wall": m(cpu_per_wall([first_warmup]), "ratio"),
        "engine.shard_imbalance_p50": m(core("shard_imbalance_p50"), "ratio"),
        "obs.trace_overhead": m(trace_overhead(traced, plain), "ratio"),
        "obs.span_coverage": m(min(benchlib.coverage(j["spans"])
                                   for j in traced), "ratio"),
        "eval.recall": m(doc["recall"], "ratio"),
        "eval.precision": m(doc["precision"], "ratio"),
    }


def trace_overhead(traced, plain):
    """Median over instances of traced wall / plain wall; each traced job
    is followed by a plain job on the same instance."""
    ratios = [t["wall"] / p["wall"] for t, p in zip(traced, plain)
              if t["instance"] == p["instance"] and p["wall"] > 0]
    return benchlib.median(ratios)


def evaluate(doc, trace):
    """Returns (correct, attempted, failed, metrics, details)."""
    jobs = doc["jobs"]
    plain = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    failed = [j for j in jobs if not j["ok"]]
    problems = ["job on instance %d: %s" % (j["instance"], j["error"])
                for j in failed]
    if doc["reference_error"]:
        problems.append("reference: " + doc["reference_error"])
    problems += ["warm-up on instance %d failed" % j["instance"]
                 for j in doc["warmups"] if not j["ok"]]
    step_samples = len(fast_steps(plain))
    need = benchlib.min_samples(STEP_QUANTILE)
    if trace:
        if not traced:
            problems.append("no traced job finished")
            metrics = {}
        else:
            problems += ["traced job without library metrics"
                         for j in traced if not j["core"]["metrics_valid"]]
            metrics = per_layer(doc, traced, plain)
            if metrics["obs.span_coverage"]["value"] < 0.95:
                problems.append("bench spans cover under 95% of a job")
    else:
        if step_samples < need:
            problems.append("step_s_p%d needs %d step samples, got %d" % (
                100 * STEP_QUANTILE, need, step_samples))
            metrics = {}
        else:
            metrics = end_to_end(doc, jobs)
    details = dict(doc["identity"])
    details.update({
        "git_sha": git_sha(),
        "held_out_seed": HELD_OUT_SEED,
        "trace": int(trace),
        "jobs": len(jobs),
        "traced_jobs": len(traced),
        "step_samples": step_samples,
        "step_quantile_min_samples": need,
        "fail_ratio": len(failed) / len(jobs) if jobs else 1.0,
        "recall": doc["recall"],
        "precision": doc["precision"],
        "warmup_job_s": doc["warmups"][0]["wall"],
        "warmup_cpu_per_wall": cpu_per_wall(doc["warmups"][:1]),
        "problems": problems,
    })
    return (not problems, len(jobs), len(failed), metrics, details)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (perfbench/test_perfbench.py)")
    args = p.parse_args(argv)
    data = DATA_DIR / ("%s-%d%s" % (args.workload, args.seed,
                                    "-tiny" if args.tiny else ""))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", str(data)] + (["--tiny"] if args.tiny else [])
    try:
        build()
        start = time.monotonic()
        call([str(DRIVER), "gen"] + common, timeout=60)
        left = RUN_BUDGET_S - (time.monotonic() - start)
        out = call([str(DRIVER), "run"] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--min-steps", str(0 if args.trace else math.ceil(
                benchlib.min_samples(STEP_QUANTILE) / FAST_SHARE)),
            "--max-seconds", str(max(1.0, left - 60.0))],
            timeout=max(1.0, left), capture=True)
        doc = json.loads(out)
    except (BenchError, ValueError) as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)
    correct, attempted, failed, metrics, details = evaluate(doc, args.trace)
    for problem in details["problems"]:
        log(problem)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
