"""Statistics the benchmark reports: medians, quartiles, tail percentiles
and failure counts. Pure functions; self-tested by test_stats.py."""

import math
import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) exactly as statistics.quantiles(values, n=4) gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rank(count, pct):
    # Rounded first so that 99.9% of 100000 is rank 99900, not 99901.
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    return sorted(values)[_rank(len(values), pct) - 1]


def beyond(count, pct):
    """Samples strictly above the nearest-rank pct percentile of `count`."""
    return count - _rank(count, pct)


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values, cap=99.0, min_beyond=10):
    """The highest percentile (of TAIL_CANDIDATES, at most `cap`) that has at
    least `min_beyond` samples beyond it, as (pct, value, samples beyond).
    With too few samples for any candidate it falls back to the maximum,
    reported as percentile 100 with 0 samples beyond."""
    for pct in TAIL_CANDIDATES:
        if pct <= cap and beyond(len(values), pct) >= min_beyond:
            return pct, percentile(values, pct), beyond(len(values), pct)
    return 100.0, max(values), 0


class Failures:
    """Queries attempted and queries without a correct outcome. A run that
    fails outright (non-zero exit, disconnect, wrong output) fails every
    query it attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, attempted, failed=0, reason=None):
        failed = min(failed, attempted)
        self.attempted += attempted
        self.failed += failed
        if failed and reason:
            self.reasons.append(reason)

    def success_frac(self):
        if self.attempted == 0:
            return 0.0
        return (self.attempted - self.failed) / self.attempted
