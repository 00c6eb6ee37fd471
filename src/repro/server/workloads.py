"""Workload generators for the kNN server load tests.

Each generator returns a list of :class:`WorkItem` — plain request specs
the load driver replays against a :class:`~repro.server.server.KNNServer`
(or sequentially against a bare engine for the baseline).  The shapes
model the request streams a POI service actually sees:

* :func:`uniform_workload` — every vertex equally likely; the
  cache-hostile floor.
* :func:`hotspot_workload` — Zipf-skewed popularity (a city centre, a
  stadium on match day); the stream real caches feed on.
* :func:`diurnal_workload` — arrival *times* follow a sinusoidal
  day/night rate curve; exercises open-loop pacing, burst admission and
  queue depth.
* :func:`category_switching_workload` — clients hop between POI
  categories (restaurants → fuel → parking), exercising per-category
  engines and batch grouping by object set.

All generators are deterministic in ``seed``: the same seed always
yields the same item sequence (see ``tests/conftest.py`` for the
repo-wide seeding convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.graph.graph import Graph


@dataclass(frozen=True)
class WorkItem:
    """One request spec: what to ask and (optionally) when."""

    vertex: int
    k: int
    method: str = "auto"
    category: Optional[str] = None
    #: Arrival offset in seconds from workload start (open-loop driver);
    #: closed-loop drivers ignore it.
    at_s: float = 0.0


def uniform_workload(
    graph: Graph, n: int, k: int, *, method: str = "auto", seed: int = 0
) -> List[WorkItem]:
    """``n`` queries from uniformly random vertices."""
    rng = np.random.default_rng(seed)
    vertices = rng.integers(0, graph.num_vertices, size=n)
    return [WorkItem(int(v), int(k), method=method) for v in vertices]


def zipf_weights(n: int, skew: float) -> np.ndarray:
    """Normalised Zipf probabilities ``p(rank r) ∝ 1 / r^skew``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** -float(skew)
    return weights / weights.sum()


def hotspot_workload(
    graph: Graph,
    n: int,
    k: int,
    *,
    hot_vertices: int = 64,
    skew: float = 1.1,
    method: str = "auto",
    seed: int = 0,
) -> List[WorkItem]:
    """Zipf-skewed queries over a random hot set of vertices.

    ``hot_vertices`` random vertices get Zipf(``skew``) popularity; with
    the defaults the top vertex absorbs roughly a fifth of all traffic —
    the regime where result caching and request coalescing pay.
    """
    rng = np.random.default_rng(seed)
    pool = min(hot_vertices, graph.num_vertices)
    hot = rng.choice(graph.num_vertices, size=pool, replace=False)
    picks = rng.choice(hot, size=n, p=zipf_weights(pool, skew))
    return [WorkItem(int(v), int(k), method=method) for v in picks]


def diurnal_workload(
    graph: Graph,
    n: int,
    k: int,
    *,
    period_s: float = 60.0,
    peak_qps: float = 200.0,
    trough_qps: float = 20.0,
    hot_vertices: int = 64,
    skew: float = 1.1,
    method: str = "auto",
    seed: int = 0,
) -> List[WorkItem]:
    """Hotspot queries whose arrival times ramp like a day/night cycle.

    Arrivals follow an inhomogeneous Poisson process with rate
    ``trough + (peak - trough) * (1 - cos(2πt/period)) / 2`` — the
    workload starts at the trough, crests mid-period and returns.  The
    open-loop driver replays ``at_s`` faithfully; tail latency under the
    crest is the interesting output.
    """
    if peak_qps <= 0 or trough_qps <= 0:
        raise ValueError("rates must be positive")
    rng = np.random.default_rng(seed)
    items = hotspot_workload(
        graph, n, k, hot_vertices=hot_vertices, skew=skew,
        method=method, seed=seed + 1,
    )
    t = 0.0
    out: List[WorkItem] = []
    for item in items:
        rate = trough_qps + (peak_qps - trough_qps) * (
            1.0 - math.cos(2.0 * math.pi * t / period_s)
        ) / 2.0
        t += float(rng.exponential(1.0 / rate))
        out.append(WorkItem(item.vertex, item.k, method=item.method, at_s=t))
    return out


def category_switching_workload(
    graph: Graph,
    n: int,
    k: int,
    categories: Sequence[str],
    *,
    switch_every: int = 10,
    method: str = "auto",
    seed: int = 0,
) -> List[WorkItem]:
    """Uniform queries that cycle through POI categories.

    Every ``switch_every`` consecutive requests target the next category
    (restaurants, then fuel, then parking, ...), the way one user session
    hops between POI types.  Exercises the server's per-category engines
    and the dispatcher's same-object-set grouping.
    """
    if not categories:
        raise ValueError("need at least one category")
    if switch_every < 1:
        raise ValueError("switch_every must be >= 1")
    rng = np.random.default_rng(seed)
    vertices = rng.integers(0, graph.num_vertices, size=n)
    return [
        WorkItem(
            int(v),
            int(k),
            method=method,
            category=categories[(i // switch_every) % len(categories)],
        )
        for i, v in enumerate(vertices)
    ]
