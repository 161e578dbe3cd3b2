"""Cumulative-distribution utilities shared by the Section II analyses."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ExperimentError


def empirical_cdf(values: Sequence[float], points: Sequence[float]) -> list[float]:
    """Empirical CDF of ``values`` evaluated at ``points``.

    Returns ``P[X <= p]`` for each point ``p``; an empty sample yields zeros.
    """
    if len(points) == 0:
        raise ExperimentError("at least one evaluation point is required")
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        return [0.0 for _ in points]
    data.sort()
    return [float(np.searchsorted(data, point, side="right") / data.size) for point in points]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values`` (0.0 for an empty sample)."""
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ExperimentError("percentile q must be in [0, 100]")
    return float(np.percentile(data, q))


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (0.0 for an empty sample)."""
    return percentile(values, 50.0)
