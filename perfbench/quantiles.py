"""Order statistics for latency samples.

A tail percentile is only worth reporting when enough samples lie beyond
it to make it more than the single slowest operation, so the tail
reported is the highest percentile of :data:`LADDER` with at least
:data:`MIN_BEYOND` samples above it.
"""

from __future__ import annotations

#: candidate tail percentiles, lowest first
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """The ``p``-th percentile, linearly interpolated between order
    statistics (what ``statistics.quantiles(method="inclusive")`` does)."""

    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples) -> tuple[float, float] | None:
    """``(p, value)`` for the highest ladder percentile with at least
    :data:`MIN_BEYOND` samples beyond it, or None when even the median
    has fewer."""

    n = len(samples)
    best = None
    for p in LADDER:
        # tolerance: 100 - 99.9 is not exactly 0.1 in binary
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    if best is None:
        return None
    return best, percentile(samples, best)
