"""Arithmetic of the tsgbench benchmark: exact percentiles, span self
times, error rates and the open-loop arrival schedule.

Everything here works on raw samples; nothing is bucketed. The tests are
in test_benchstats.py next to this file:

    python3 -m unittest discover -s tsgbench -p 'test_*.py'
"""

import math


def nearest_rank(values, p):
    """Nearest-rank percentile p (0 < p <= 100) of the raw samples: the
    smallest sample with at least p% of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile out of range: %r" % p)
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(n):
    """The highest of p99, p90, p75 and p50 that leaves at least ten
    samples beyond it among n, or None when not even p50 does."""
    for p in (99, 90, 75, 50):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return None


def summary(values):
    """n, median and quartiles (nearest rank) of raw samples."""
    return {
        "n": len(values),
        "median": nearest_rank(values, 50),
        "q1": nearest_rank(values, 25),
        "q3": nearest_rank(values, 75),
    }


def interquartile_mean(values):
    """Mean of the middle half of the samples (a quarter trimmed at each
    end): steadier than the mean when a few samples stray, and than the
    median when none do."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def self_times(spans):
    """Total self time per span name, in the spans' time unit.

    spans: dicts with id, parent (-1 for roots), name, start and end. A
    span's self time is its duration minus the part of that interval its
    children cover (overlapping children are counted once, and a child
    sticking out of its parent only counts inside it)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        kids = sorted(children.get(s["id"], []), key=lambda c: c["start"])
        for c in kids:
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own = max(0.0, (s["end"] - s["start"]) - covered)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def error_rate(attempted, failed):
    """Failed (refused, timed-out or wrong) operations over attempted."""
    if attempted <= 0:
        raise ValueError("nothing attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed count out of range")
    return failed / attempted


def poisson_schedule(rng, rate, seconds):
    """Due times (seconds from the start) of an open-loop Poisson arrival
    process at `rate` per second over [0, seconds): exponential gaps
    drawn from `rng`, a random.Random, so a seed fixes the schedule."""
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    due = []
    t = rng.expovariate(rate)
    while t < seconds:
        due.append(t)
        t += rng.expovariate(rate)
    return due


def latencies_from_due(due, done):
    """Per-request latency measured from each request's due time, so a
    stall also charges the requests queued behind it. done[i] is the
    completion time of request i, or None when it never completed;
    those are returned as None (a failed request misses every limit)."""
    return [None if d is None else d - t for t, d in zip(due, done)]


def meets_limit(latencies, p, limit):
    """Whether the nearest-rank p-th percentile of the latencies stays
    within limit, counting a missing latency (a failure) as over it."""
    if not latencies:
        return False
    worst = float("inf")
    return nearest_rank([worst if x is None else x for x in latencies], p) <= limit
