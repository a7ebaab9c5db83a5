"""Percentiles, sample counts and run-to-run spread for the benchmark.

Every timing the benchmark reports is a median plus the highest
percentile that keeps at least :data:`MIN_BEYOND` samples beyond it, so
each summary carries its sample count and the helpers say whether a
percentile is supported by the data.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Sequence

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks, as ``numpy.percentile`` computes it by default."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


def supports(n: int, q: float) -> bool:
    """Does a sample of ``n`` support reporting the ``q``-th percentile?"""
    return samples_beyond(n, q) >= MIN_BEYOND


def summary(values: Sequence[float], tail_q: float) -> Dict[str, float]:
    """Median, ``tail_q`` percentile, sample count and whether the tail is
    supported; an empty sample summarises to zeros with ``n = 0``."""
    n = len(values)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "n": 0, "tail_supported": False}
    return {
        "p50": percentile(values, 50.0),
        "tail": percentile(values, tail_q),
        "n": n,
        "tail_supported": supports(n, tail_q),
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (``statistics``
    quantiles, the rule a run-to-run steadiness check applies)."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return abs(q3 - q1) / abs(med)


def conserved(offered: int, completed: int, shed: int, failed: int) -> bool:
    """Every offered request is accounted for exactly once."""
    return offered == completed + shed + failed
