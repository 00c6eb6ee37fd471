"""Estimators shared by the layer probes and ``compare.py``.

Kept free of any ``repro`` import so the self-test can exercise them on
synthetic data alone.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Sequence


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(values, n=4)``) and
    spread — (Q3 - Q1) / median, the driver's measure — of one side's
    runs (one value = one run)."""
    if len(values) < 2:
        v = float(values[0])
        return {"n": 1, "median": v, "q1": v, "q3": v, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "n": len(values), "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
    }


def paired_median_ratio(
    time_a: Callable[[int], float], time_b: Callable[[int], float], pairs: int
) -> float:
    """Median of per-pair ``b / a`` ratios, order alternating.

    Lifted by copy from the observability-overhead benchmark (which is
    slated for replacement): each pair's two samples are adjacent in
    time so a slow stretch of a shared host hits both sides, and the
    order flips every pair so neither side always pays the second-run
    cost.  ``time_a(i)``
    / ``time_b(i)`` run side a / b on pair ``i`` and return seconds.
    """
    ratios: List[float] = []
    for i in range(pairs):
        if i % 2 == 0:
            a = time_a(i)
            b = time_b(i)
        else:
            b = time_b(i)
            a = time_a(i)
        ratios.append(b / a)
    return statistics.median(ratios)
