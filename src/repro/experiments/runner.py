"""Workload generation and measurement plumbing.

The experiment harness's handle on one road network is the engine's
:class:`~repro.engine.workbench.IndexCache` (the lazily built, shared
index collection), with method construction delegated to the pluggable
registry in :mod:`repro.engine.registry` — mirroring the paper's "same
subroutines for common tasks" methodology.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.registry import known_methods
from repro.graph.graph import Graph
from repro.knn.base import KNNAlgorithm

#: Methods the harness knows how to construct (registry registration order).
METHOD_NAMES = tuple(known_methods())


def random_queries(graph: Graph, count: int, seed: int = 0) -> np.ndarray:
    """Uniformly random query vertices (the paper's query workload)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, graph.num_vertices, size=count)


def measure_query_time(
    algorithm: KNNAlgorithm,
    queries: Sequence[int],
    k: int,
    repeats: int = 2,
) -> float:
    """Mean query time in microseconds over the workload.

    The minimum over ``repeats`` passes is reported, which suppresses
    cold-cache and GC noise (the paper averages 10,000 queries; we use
    fewer queries but repeated passes).
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for q in queries:
            algorithm.knn(int(q), k)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best / max(len(queries), 1) * 1e6


class ExperimentResult:
    """One figure/table worth of series.

    ``series`` maps a method/series name to a list of (x, y) points.
    """

    def __init__(
        self,
        title: str,
        x_label: str,
        y_label: str,
        series: Optional[Dict[str, List[Tuple[object, float]]]] = None,
    ) -> None:
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.series: Dict[str, List[Tuple[object, float]]] = series or {}

    def add(self, name: str, x: object, y: float) -> None:
        self.series.setdefault(name, []).append((x, y))

    def ys(self, name: str) -> List[float]:
        return [y for _, y in self.series[name]]

    def at(self, name: str, x: object) -> float:
        for px, py in self.series[name]:
            if px == x:
                return py
        raise KeyError(f"{name} has no point at {x!r}")

    def mean(self, name: str) -> float:
        ys = self.ys(name)
        return sum(ys) / len(ys)

    def format_text(self) -> str:
        """Render as an aligned text table (x down, series across)."""
        xs: List[object] = []
        for points in self.series.values():
            for x, _ in points:
                if x not in xs:
                    xs.append(x)
        names = list(self.series)
        header = [self.x_label] + names
        rows = [header]
        lookup = {
            name: {x: y for x, y in points}
            for name, points in self.series.items()
        }
        for x in xs:
            row = [str(x)]
            for name in names:
                y = lookup[name].get(x)
                row.append("-" if y is None else f"{y:,.2f}")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = [f"== {self.title} ({self.y_label}) =="]
        for r in rows:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ExperimentResult({self.title!r}, series={list(self.series)})"
