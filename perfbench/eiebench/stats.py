"""Timing summaries: the median plus the highest percentile the sample supports."""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Percentiles a summary may report, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A percentile is supported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9


def min_samples(q: float) -> int:
    """The smallest sample count that supports the ``q``-th percentile."""
    count = 1
    while not supports(count, q):
        count += 1
    return count


def highest_supported_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it."""
    for q in PERCENTILE_LADDER:
        if supports(count, q):
            return q
    return None


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of a non-empty sample."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(values, q))


def summarize(samples: Sequence[float]) -> dict:
    """``{"n", "median", "q", "tail"}``; ``q``/``tail`` are ``None`` when no percentile is supported."""
    count = len(samples)
    if count == 0:
        return {"n": 0, "median": None, "q": None, "tail": None}
    q = highest_supported_percentile(count)
    return {
        "n": count,
        "median": percentile(samples, 50.0),
        "q": q,
        "tail": None if q is None else percentile(samples, q),
    }
