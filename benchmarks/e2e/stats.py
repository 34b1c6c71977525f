"""Summary statistics shared by the runner and ``compare.py``."""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def summary(values: list[float]) -> dict[str, float]:
    """Median with min, max, quartiles and the sample count."""
    q1, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def timed(fn: Callable[[], object], repeat: int = 5) -> float:
    """Median wall seconds of ``fn()`` over ``repeat`` calls."""
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)
