#!/usr/bin/env python3
"""dcstat: aggregate, diff, and render deltaclus telemetry artifacts.

One tool for the five JSON shapes the observability stack emits
(docs/OBSERVABILITY.md):

  bench records   BENCH_<name>.json from bench/ drivers
  perf reports    --perf-report=PATH from the CLI (scripts/perf_report_schema.json)
  telemetry JSONL --telemetry-out streams ({"event": ...} per line)
  Chrome traces   --trace-out files ({"traceEvents": [...]})
  session status  --session-status=PATH from the CLI ("kind": "session_status")

Subcommands:

  summary FILE...
      Detect each file's kind and print a one-screen digest.

  diff BASE NEW
      Compare two artifacts of the same kind.
      bench records: per-benchmark speedups matched by name (new/base
        items_per_second, else inverse real_time, so > 1 is faster;
        aggregate pseudo-rows with zero iterations are skipped).
        Whole-run rows carry no "benchmark" key; they are named from
        their sorted identity keys ("run:cols=20/k=10/rows=100") and
        timed by "seconds". Gates: --threshold F fails on any speedup
        below 1 - F; --min-ratio REGEX=F (repeatable) fails unless every
        matching benchmark -- and at least one -- reaches F. These are
        the trajectory floors scripts/check.sh bench and CI assert.
      perf reports: per-phase wall deltas with share-of-regression
        attribution -- when the run got slower, which phases moved.
      telemetry JSONL: deltas of the iteration digest (iteration count,
        final best_so_far, summed determine_seconds and apply_seconds).

  flame TRACE.json
      Render the trace as a top-down text flamegraph (per-thread span
      trees aggregated by call path, bars scaled to the root).

  overhead BENCH.json --off NAME --full NAME [--max-ratio R]
      Telemetry-overhead gate: fail (exit 1) when the full/off
      real_time ratio exceeds R (default 1.10, the PR 2 envelope).

Standard library only, like the rest of scripts/ and tools/.
Exit status: 0 ok, 1 gate tripped or regression flagged, 2 usage error.
"""

import argparse
import json
import re
import sys

# Keys that describe the measurement rather than identify the workload;
# every other key of a whole-run row goes into its synthesized
# "run:..." name.
_MEASUREMENT_KEYS = frozenset({
    "seconds", "real_time", "cpu_time", "time_unit", "items_per_second",
    "bytes_per_second", "iterations", "repetitions", "threads",
    "latency_p50", "latency_p90", "latency_p99", "speedup",
})

# ---------------------------------------------------------------------------
# Artifact loading and kind detection


def load_artifact(path):
    """Returns (kind, payload) where kind is one of bench / perf_report /
    metrics / trace / telemetry / session_status. Telemetry payloads are
    lists of events; everything else is the parsed JSON object."""
    with open(path) as f:
        text = f.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        # Not a single document: try JSON-lines telemetry.
        events = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}:{lineno}: not JSON or JSONL: {err}")
        return "telemetry", events
    if isinstance(doc, dict):
        if doc.get("kind") == "session_status":
            return "session_status", doc
        if "traceEvents" in doc:
            return "trace", doc
        if "phases" in doc and "algorithm" in doc:
            return "perf_report", doc
        if "results" in doc and "name" in doc:
            return "bench", doc
        if "counters" in doc and "gauges" in doc:
            return "metrics", doc
        if "event" in doc:
            return "telemetry", [doc]
    raise ValueError(f"{path}: unrecognized artifact shape")


def timed_results(record):
    """Benchmark-name -> result-row map (aggregate pseudo-rows skipped,
    whole-run rows named from their identity keys)."""
    out = {}
    for r in record.get("results", []):
        if "benchmark" in r:
            if r.get("iterations", 0) <= 0:
                continue
            out[r["benchmark"]] = r
            continue
        ident = "/".join(f"{k}={r[k]}" for k in sorted(r)
                         if k not in _MEASUREMENT_KEYS)
        name = f"run:{ident}" if ident else f"run:#{len(out)}"
        while name in out:
            name += "+"
        entry = dict(r)
        if "seconds" in entry and "real_time" not in entry:
            entry["real_time"] = entry["seconds"]
            entry["time_unit"] = "s"
        out[name] = entry
    return out


def speedup(base, new):
    """new/base throughput ratio; > 1 means new is faster."""
    if "items_per_second" in base and "items_per_second" in new:
        if base["items_per_second"] <= 0:
            return None
        return new["items_per_second"] / base["items_per_second"]
    if new.get("real_time", 0) <= 0 or base.get("time_unit") != new.get(
            "time_unit"):
        return None
    return base["real_time"] / new["real_time"]


def run_end(events):
    for e in reversed(events):
        if e.get("event") == "run_end":
            return e.get("data", {})
    return None


def iteration_digest(events):
    """The four run facts a telemetry stream's iteration events carry:
    iteration count, final best_so_far (None without iterations), and
    the summed determine/apply walls. run_end holds no copy of them."""
    iters = [e.get("data", {}) for e in events if e.get("event") == "iteration"]
    return {
        "iterations": len(iters),
        "best_so_far": iters[-1].get("best_so_far") if iters else None,
        "determine_seconds": sum(i.get("determine_seconds", 0.0)
                                 for i in iters),
        "apply_seconds": sum(i.get("apply_seconds", 0.0) for i in iters),
    }


# ---------------------------------------------------------------------------
# summary


def summarize(path):
    kind, doc = load_artifact(path)
    print(f"{path}: {kind}")
    if kind == "bench":
        rows = timed_results(doc)
        print(f"  name={doc.get('name')} sha={doc.get('git_sha', '?')} "
              f"quick={doc.get('quick')} results={len(rows)}")
        for name, r in rows.items():
            if "items_per_second" in r:
                print(f"  {name:<40} {r['items_per_second']:.4g}/s")
            else:
                unit = r.get("time_unit", "?")
                print(f"  {name:<40} {r.get('real_time', 0):.4g}{unit}")
    elif kind == "perf_report":
        total = doc.get("total_seconds", 0.0)
        print(f"  {doc['algorithm']}: {total:.4g} s wall, "
              f"{doc.get('total_cpu_seconds', 0.0):.4g} s cpu, "
              f"{doc.get('iterations', 0)} iterations")
        for p in doc.get("phases", []):
            print(f"  {p['name']:<20} {p['wall_seconds']:12.6f} s "
                  f"{100.0 * p.get('share', 0.0):6.1f}%")
        if doc.get("metrics_valid"):
            print(f"  entries/s={doc.get('entries_per_second', 0.0):.4g} "
                  f"memo_hit={100.0 * doc.get('gain_memo_hit_rate', 0.0):.1f}% "
                  f"dense={100.0 * doc.get('dense_dispatch_rate', 0.0):.1f}%")
            # Pane/sweep reuse counters (absent in pre-PR10 reports).
            patches = doc.get("pane_patches")
            if patches is not None:
                print(f"  pane: {patches} patches / "
                      f"{doc.get('pane_rebuilds', 0)} rebuilds "
                      f"({doc.get('pane_compactions', 0)} compactions), "
                      f"{doc.get('clusters_skipped_clean', 0)} "
                      f"clean-cluster sweeps skipped")
    elif kind == "telemetry":
        digest = iteration_digest(doc)
        print(f"  {len(doc)} events, {digest['iterations']} iterations")
        if digest["iterations"]:
            print(f"  best_so_far={digest['best_so_far']:.4g} "
                  f"determine={digest['determine_seconds']:.4g}s "
                  f"apply={digest['apply_seconds']:.4g}s")
        end = run_end(doc)
        if end:
            print(f"  run_end: level={end.get('level')} "
                  f"actions={end.get('total_actions_applied')} "
                  f"best_iteration={end.get('best_iteration')}")
    elif kind == "trace":
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        tids = sorted({e.get("tid", 0) for e in spans})
        dur = sum(e.get("dur", 0.0) for e in spans if e.get("args", {})
                  .get("depth", 0) == 0)
        print(f"  {len(spans)} spans on {len(tids)} thread(s), "
              f"{dur / 1e6:.4g} s at depth 0")
    elif kind == "metrics":
        for section in ("counters", "gauges", "quantile_histograms"):
            if doc.get(section):
                print(f"  {section}: {len(doc[section])}")
    elif kind == "session_status":
        stopped = doc.get("stopped_reason") or "none"
        print(f"  state={doc.get('state')} round={doc.get('round', 0)} "
              f"iterations={doc.get('iterations', 0)} "
              f"stopped={stopped} done={doc.get('done')}")
        print(f"  best_average_score={doc.get('best_average_score', 0.0):.4g} "
              f"elapsed={doc.get('elapsed_seconds', 0.0):.4g}s")
        print(f"  memo: resident={doc.get('memo_resident_bytes', 0)}B; "
              f"panes={doc.get('pane_bytes', 0)}B")
    return 0


# ---------------------------------------------------------------------------
# diff


def diff_bench(base, new, args):
    base_rows, new_rows = timed_results(base), timed_results(new)
    common = [n for n in base_rows if n in new_rows]
    if not common:
        print("dcstat: no common benchmarks", file=sys.stderr)
        return 1
    width = max(len(n) for n in common)
    print(f"{'benchmark':<{width}}  {'base':>12}  {'new':>12}  speedup")
    failures = []
    ratios = {}
    for name in common:
        b, n = base_rows[name], new_rows[name]
        ratio = speedup(b, n)
        if "items_per_second" in b and "items_per_second" in n:
            bs, ns = f"{b['items_per_second']:.4g}/s", \
                     f"{n['items_per_second']:.4g}/s"
        else:
            unit = b.get("time_unit", "?")
            bs = f"{b.get('real_time', 0):.4g}{unit}"
            ns = f"{n.get('real_time', 0):.4g}{unit}"
        shown = f"{ratio:8.2f}x" if ratio is not None else "     n/a"
        print(f"{name:<{width}}  {bs:>12}  {ns:>12}  {shown}")
        if ratio is not None:
            ratios[name] = ratio
            if args.threshold is not None and ratio < 1.0 - args.threshold:
                failures.append(f"{name}: regressed to {ratio:.2f}x")
    for pattern, floor in args.min_ratios:
        matched = {n: r for n, r in ratios.items() if pattern.search(n)}
        if not matched:
            failures.append(f"--min-ratio {pattern.pattern!r}: no match")
        for name, ratio in sorted(matched.items()):
            if ratio < floor:
                failures.append(f"{name}: {ratio:.2f}x below {floor:.2f}x")
    if failures:
        print("\ndcstat diff: FAILED", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print("\ndcstat diff: OK")
    return 0


def diff_perf_reports(base, new):
    """Per-phase deltas; when the run regressed, attribute the slowdown
    to the phases whose wall time moved."""
    base_total = base.get("total_seconds", 0.0)
    new_total = new.get("total_seconds", 0.0)
    delta_total = new_total - base_total
    direction = ("regressed" if delta_total > 0 else
                 "improved" if delta_total < 0 else "unchanged")
    print(f"{base['algorithm']}: total {base_total:.6f} s -> "
          f"{new_total:.6f} s ({delta_total:+.6f} s, {direction})")

    base_phases = {p["name"]: p for p in base.get("phases", [])}
    new_phases = {p["name"]: p for p in new.get("phases", [])}
    names = [p["name"] for p in base.get("phases", [])]
    names += [n for n in new_phases if n not in base_phases]
    print(f"  {'phase':<20} {'base (s)':>12} {'new (s)':>12} "
          f"{'delta (s)':>12}  attribution")
    movers = []
    for name in names:
        b = base_phases.get(name, {}).get("wall_seconds", 0.0)
        n = new_phases.get(name, {}).get("wall_seconds", 0.0)
        d = n - b
        # Attribution: this phase's share of the total movement, only
        # meaningful for phases moving in the regression's direction.
        if delta_total != 0.0 and d * delta_total > 0.0:
            attribution = f"{100.0 * d / delta_total:6.1f}%"
        else:
            attribution = "     -"
        print(f"  {name:<20} {b:>12.6f} {n:>12.6f} {d:>+12.6f}  {attribution}")
        # A phase "moved" when its delta is a nontrivial slice of the
        # base total (>= 2%) -- absolute thresholds would misfire across
        # the microsecond-to-minute range these reports span.
        if base_total > 0.0 and abs(d) >= 0.02 * base_total:
            movers.append((name, d))
    for key in ("entries_per_second", "gain_memo_hit_rate",
                "dense_dispatch_rate", "shard_imbalance",
                "pane_patches", "pane_rebuilds", "pane_compactions",
                "clusters_skipped_clean"):
        b, n = base.get(key), new.get(key)
        if isinstance(b, dict) or isinstance(n, dict):
            b = (b or {}).get("p99", 0.0)
            n = (n or {}).get("p99", 0.0)
            key += ".p99"
        if b is not None and n is not None and (b or n):
            print(f"  {key:<20} {b:>12.4g} {n:>12.4g}")
    if movers:
        moved = ", ".join(f"{name} ({d:+.6f} s)" for name, d in movers)
        print(f"  phases that moved: {moved}")
    else:
        print("  phases that moved: none (all deltas < 2% of base total)")
    return 0


def diff_telemetry(base, new):
    b, n = iteration_digest(base), iteration_digest(new)
    if not b["iterations"] or not n["iterations"]:
        print("dcstat: both JSONL streams need iteration events",
              file=sys.stderr)
        return 1
    print(f"  {'field':<26} {'base':>14} {'new':>14} {'delta':>14}")
    for k in b:
        print(f"  {k:<26} {b[k]:>14.6g} {n[k]:>14.6g} {n[k] - b[k]:>+14.6g}")
    return 0


def cmd_diff(args):
    kind_a, doc_a = load_artifact(args.base)
    kind_b, doc_b = load_artifact(args.new)
    if kind_a != kind_b:
        print(f"dcstat: cannot diff {kind_a} against {kind_b}",
              file=sys.stderr)
        return 2
    if kind_a == "bench":
        return diff_bench(doc_a, doc_b, args)
    if kind_a == "perf_report":
        return diff_perf_reports(doc_a, doc_b)
    if kind_a == "telemetry":
        return diff_telemetry(doc_a, doc_b)
    print(f"dcstat: diff not supported for {kind_a}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# flame


def build_flame(events):
    """Aggregates "X" spans into a path tree keyed by the span-name chain.

    TraceRecorder spans carry args.depth (nesting level within their
    thread), and WriteChromeTrace emits them in start order per ring
    slot, so sorting by (tid, ts) and truncating a per-thread name stack
    to each span's depth reconstructs the call path exactly.
    """
    spans = [e for e in events if e.get("ph") == "X"]
    spans.sort(key=lambda e: (e.get("tid", 0), e.get("ts", 0.0)))
    tree = {}  # path tuple -> [dur_us, count]
    stack = []
    last_tid = None
    for e in spans:
        tid = e.get("tid", 0)
        if tid != last_tid:
            stack, last_tid = [], tid
        depth = e.get("args", {}).get("depth", 0)
        del stack[depth:]
        stack.append((tid, e["name"]))
        path = tuple(stack)
        node = tree.setdefault(path, [0.0, 0])
        node[0] += e.get("dur", 0.0)
        node[1] += 1
    return tree


def thread_names(events):
    names = {}
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            names[e.get("tid", 0)] = e.get("args", {}).get("name", "")
    return names


def cmd_flame(args):
    kind, doc = load_artifact(args.trace)
    if kind != "trace":
        print(f"dcstat: {args.trace} is a {kind}, not a trace",
              file=sys.stderr)
        return 2
    events = doc["traceEvents"]
    tree = build_flame(events)
    if not tree:
        print("dcstat: trace has no spans", file=sys.stderr)
        return 1
    names = thread_names(events)
    bar_width = 30
    # Depth-first, children under parents, heaviest first at each level.
    # One scale for the whole graph so bars compare across roots/threads.
    roots = sorted((p for p in tree if len(p) == 1),
                   key=lambda p: (p[0][0], -tree[p][0]))
    scale = max(tree[p][0] for p in roots)
    printed_tid = None

    def render(path):
        dur_us, count = tree[path]
        bar = "#" * max(1, int(round(bar_width * dur_us / scale))) \
            if scale > 0 else ""
        indent = "  " * (len(path) - 1)
        label = indent + path[-1][1]
        print(f"  {label:<44} {dur_us / 1e3:>12.3f} ms  x{count:<5} {bar}")
        children = sorted(
            (p for p in tree if len(p) == len(path) + 1
             and p[:len(path)] == path),
            key=lambda p: -tree[p][0])
        for child in children:
            render(child)

    for root in roots:
        tid = root[0][0]
        if tid != printed_tid:
            label = names.get(tid, "main" if tid == 0 else "")
            suffix = f" ({label})" if label else ""
            print(f"tid {tid}{suffix}")
            printed_tid = tid
        render(root)
    return 0


# ---------------------------------------------------------------------------
# overhead


def cmd_overhead(args):
    kind, doc = load_artifact(args.bench)
    if kind != "bench":
        print(f"dcstat: {args.bench} is a {kind}, not a bench record",
              file=sys.stderr)
        return 2
    rows = timed_results(doc)
    missing = [n for n in (args.off, args.full) if n not in rows]
    if missing:
        print(f"dcstat: benchmark(s) not in record: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    off, full = rows[args.off], rows[args.full]
    if off.get("time_unit") != full.get("time_unit") or \
            off.get("real_time", 0) <= 0:
        print("dcstat: off/full rows are not comparable", file=sys.stderr)
        return 2
    ratio = full["real_time"] / off["real_time"]
    unit = off.get("time_unit", "?")
    print(f"telemetry overhead: {args.full} {full['real_time']:.4g}{unit} / "
          f"{args.off} {off['real_time']:.4g}{unit} = {ratio:.3f}x "
          f"(max {args.max_ratio:.2f}x)")
    if ratio > args.max_ratio:
        print(f"dcstat overhead: FAILED ({ratio:.3f}x > "
              f"{args.max_ratio:.2f}x)", file=sys.stderr)
        return 1
    print("dcstat overhead: OK")
    return 0


# ---------------------------------------------------------------------------


def main(argv):
    parser = argparse.ArgumentParser(
        prog="dcstat", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary", help="digest one or more artifacts")
    p_summary.add_argument("files", nargs="+")

    p_diff = sub.add_parser("diff", help="compare two artifacts")
    p_diff.add_argument("base")
    p_diff.add_argument("new")
    p_diff.add_argument("--threshold", type=float, default=None, metavar="F")
    p_diff.add_argument("--min-ratio", action="append", default=[],
                        metavar="REGEX=F")

    p_flame = sub.add_parser("flame", help="text flamegraph of a trace")
    p_flame.add_argument("trace")

    p_overhead = sub.add_parser("overhead", help="telemetry overhead gate")
    p_overhead.add_argument("bench")
    p_overhead.add_argument("--off", required=True, metavar="NAME")
    p_overhead.add_argument("--full", required=True, metavar="NAME")
    p_overhead.add_argument("--max-ratio", type=float, default=1.10,
                            metavar="R")

    args = parser.parse_args(argv)
    if args.command == "diff":
        args.min_ratios = []
        for spec in args.min_ratio:
            pattern, sep, value = spec.rpartition("=")
            if not sep or not pattern:
                parser.error(f"--min-ratio expects REGEX=F, got {spec!r}")
            try:
                args.min_ratios.append((re.compile(pattern), float(value)))
            except (re.error, ValueError) as err:
                parser.error(f"bad --min-ratio {spec!r}: {err}")

    try:
        if args.command == "summary":
            rc = 0
            for path in args.files:
                rc = max(rc, summarize(path))
            return rc
        if args.command == "diff":
            return cmd_diff(args)
        if args.command == "flame":
            return cmd_flame(args)
        if args.command == "overhead":
            return cmd_overhead(args)
    except (OSError, ValueError) as err:
        print(f"dcstat: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
