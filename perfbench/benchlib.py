"""Pure helpers of the repository benchmark: percentiles, span self time,
metric-name rules. Kept apart from run.py so the tests can check them on
hand-built inputs without building anything."""

import math
import re
import statistics

# BENCHMARK.json naming rules: a name starts with a letter or digit and has
# at most 64 letters, digits, '_', '.' and '-'; a unit at most 16 letters,
# digits, '_', '/', '%', '.' and '-'.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# A percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return UNIT_RE.fullmatch(unit) is not None


def nearest_rank(q, n):
    """1-based rank of the q-quantile among n sorted samples."""
    return min(n, max(1, math.ceil(q * n)))


def samples_beyond(q, n):
    """Samples strictly above the q-quantile's rank."""
    return n - nearest_rank(q, n) if n else 0


def min_samples(q, beyond=MIN_BEYOND):
    """Fewest samples that leave `beyond` samples past the q-quantile."""
    n = beyond + 1
    while samples_beyond(q, n) < beyond:
        n += 1
    return n


class TooFewSamples(ValueError):
    pass


def percentile(values, q, beyond=MIN_BEYOND):
    """Nearest-rank q-quantile; refuses when fewer than `beyond` samples
    lie past it, because such a tail is one or two outliers."""
    n = len(values)
    if samples_beyond(q, n) < beyond:
        raise TooFewSamples(
            "p%g needs %d samples, got %d" % (100 * q, min_samples(q, beyond), n))
    return sorted(values)[nearest_rank(q, n) - 1]


def median(values, default=0.0):
    return statistics.median(values) if values else default


def fastest(items, share, key=lambda x: x):
    """The `share` of `items` with the smallest keys (at least one), in
    ascending order. On a shared host contention only ever slows a job,
    so the fastest jobs of a run are its least disturbed measurements."""
    ranked = sorted(items, key=key)
    return ranked[:max(1, math.ceil(share * len(ranked)))] if ranked else []


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover (children clipped to the parent,
    overlapping children counted once). `spans` is a list of dicts with
    name/start/end/parent, parent being an index into the list or -1."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = []
        for c in children[i]:
            start = max(spans[c]["start"], s["start"])
            end = min(spans[c]["end"], s["end"])
            if end > start:
                clipped.append((start, end))
        out.append((s["end"] - s["start"]) - union_length(clipped))
    return out


def self_time_by_name(spans):
    """Self time summed per span name."""
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + t
    return totals


def coverage(spans, root=0):
    """Share of the root span's wall that its children cover."""
    wall = spans[root]["end"] - spans[root]["start"]
    return 1.0 - self_times(spans)[root] / wall if wall > 0 else 0.0
