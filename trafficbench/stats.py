"""Percentiles that refuse to extrapolate, and run-to-run spreads."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), q) - 1]


def _rank(count: int, q: float) -> int:
    return max(1, math.ceil(q * count / 100.0))


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - _rank(count, q) if count else 0


def supported_percentile(values, q: float):
    """The ``q``-th percentile, or ``None`` when fewer than ``MIN_BEYOND``
    samples lie beyond it (p99 needs 1,000 samples, p90 needs 100)."""
    values = list(values)
    if beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
