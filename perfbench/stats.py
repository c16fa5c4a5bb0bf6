"""Metric helpers: means, percentiles and shares over one run's requests.

Pure functions over plain numbers, so they are tested on their own
(``test_metrics.py``) and shared by every workload.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile must leave at least this many requests beyond it.
TAIL_MIN_BEYOND = 10


def gmean(values) -> float:
    """Geometric mean of positive numbers."""
    values = list(values)
    if not values:
        raise ValueError("gmean of no values")
    if any(value <= 0 for value in values):
        raise ValueError("gmean needs positive values")
    return math.exp(math.fsum(math.log(value) for value in values) / len(values))


def nearest_rank(values, percentile: float) -> float:
    """The ``percentile`` of ``values`` by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(percentile * len(ordered) / 100.0 - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int, min_beyond: int = TAIL_MIN_BEYOND):
    """Highest percentile (0.1 steps) with ``min_beyond`` samples above it.

    Returns ``None`` when ``count`` samples cannot leave that many beyond
    any percentile.  With the nearest-rank rule, percentile ``p`` sits at
    rank ``ceil(p * count / 100)``, so ``count - rank`` samples lie beyond.
    """
    if count <= min_beyond:
        return None
    percentile = math.floor(1000.0 * (count - min_beyond) / count) / 10.0
    while percentile > 0 and count - math.ceil(
        percentile * count / 100.0 - 1e-9
    ) < min_beyond:
        percentile = round(percentile - 0.1, 1)
    return percentile


def tail(values, min_beyond: int = TAIL_MIN_BEYOND):
    """``(percentile, value)`` of the tail, or ``(None, None)``."""
    values = list(values)
    percentile = tail_percentile(len(values), min_beyond)
    if percentile is None:
        return None, None
    return percentile, nearest_rank(values, percentile)


def fail_share(
    attempted: int, failed: int = 0, shed: int = 0, timed_out: int = 0,
    rejected: int = 0,
) -> float:
    """Failed, shed, timed-out and gate-rejected requests per attempt.

    Every refused or unanswered request counts against the requests
    attempted, so shedding load never makes the share look better.
    """
    if attempted <= 0:
        raise ValueError("fail_share needs at least one attempted request")
    bad = failed + shed + timed_out + rejected
    if bad > attempted:
        raise ValueError(f"{bad} failures out of {attempted} attempts")
    return bad / attempted


def median(values) -> float:
    return statistics.median(list(values))


def done_values(rows, field: str) -> list[float]:
    """``field`` of every completed row (``status == "done"``)."""
    return [row[field] for row in rows if row["status"] == "done"]
