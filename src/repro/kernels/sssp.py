"""Whole-frontier SSSP kernels (C-level Dijkstra over the CSR arrays).

A per-edge loop (:mod:`repro.reference`) runs Dijkstra one vertex at a
time in the interpreter.  When the control flow does not need to observe
individual settles — point-to-point distance, bounded SSSP,
k-nearest-object search — the entire expansion can instead run inside
``scipy.sparse.csgraph.dijkstra`` over :meth:`Graph.to_csr_matrix`, with
a geometrically expanding radius limit so the kernel settles roughly the
same region the loop would, not the whole network.

Settled-vertex accounting
-------------------------
The reference loops count every vertex they settle.  These kernels report
the *settle-equivalent* count: the number of vertices whose distance does
not exceed the query's stopping distance, which is exactly the loop's
count whenever no two vertices sit at the same distance (the stopping
vertex is then the unique last settle).  On real-valued road networks
exact distance ties have measure zero; the production-vs-reference guard
in ``tests/test_kernels.py`` asserts equality on every graph it touches,
so a divergence cannot slip through silently.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.graph.graph import Graph
from repro.resilience.faults import fault_check
from repro.utils.counters import Counters, NULL_COUNTERS

INF = float("inf")

#: Radius growth factor between expansion rounds.  Doubling bounds the
#: total work at ~2.3x the final round on planar networks (settled area
#: grows ~quadratically with radius, so earlier rounds are geometric).
_GROWTH = 2.0


def _fallback_radius(graph: Graph) -> float:
    """A positive seed radius when the Euclidean bound degenerates to 0."""
    mean_w = float(np.mean(graph.edge_weight)) if len(graph.edge_weight) else 1.0
    return max(mean_w * 4.0, 1e-12)


def sssp_distances(
    graph: Graph, source: int, limit: float = INF
) -> np.ndarray:
    """Exact distances from ``source`` to every vertex within ``limit``.

    Vertices further than ``limit`` report ``inf`` (the reference loop's
    bounded SSSP leaves tentative frontier values there instead — callers
    must only rely on entries at or below the cutoff).
    """
    # Every SSSP flow (p2p, bounded, targets, nearest
    # objects) funnels through here, so one fault point covers them all.
    fault_check("kernel.sssp")
    matrix = graph.to_csr_matrix()
    if np.isfinite(limit):
        return _csgraph_dijkstra(matrix, directed=True, indices=source, limit=limit)
    return _csgraph_dijkstra(matrix, directed=True, indices=source)


def _expand(graph: Graph, source: int, radius: float, done) -> np.ndarray:
    """Run expansion rounds until ``done(dist)`` or the sweep was full.

    ``done`` receives the distance array of the current round and returns
    True to stop.  The final round always runs unbounded, so ``done``
    never succeeding (an unreachable target) still terminates with the
    full SSSP.
    """
    radius = radius if radius > 0 and np.isfinite(radius) else _fallback_radius(graph)
    for _ in range(48):
        dist = sssp_distances(graph, source, limit=radius)
        if done(dist):
            return dist
        radius *= _GROWTH
    return sssp_distances(graph, source)


def p2p_distance(
    graph: Graph,
    source: int,
    target: int,
    counters: Counters = NULL_COUNTERS,
) -> float:
    """Point-to-point distance; counts settle-equivalents as
    ``sssp_settled`` exactly like the reference loop."""
    if source == target:
        return 0.0
    seed = graph.euclidean_lower_bound(source, target) * 4.0
    dist = _expand(graph, source, seed, lambda d: np.isfinite(d[target]))
    d = float(dist[target])
    if np.isfinite(d):
        counters.add("sssp_settled", int(np.count_nonzero(dist <= d)))
        return d
    counters.add("sssp_settled", int(np.count_nonzero(np.isfinite(dist))))
    return INF


def sssp_bounded(
    graph: Graph,
    source: int,
    cutoff: float = INF,
    counters: Counters = NULL_COUNTERS,
) -> np.ndarray:
    """Full/bounded SSSP distance array plus settle accounting."""
    dist = sssp_distances(graph, source, limit=cutoff)
    counters.add("sssp_settled", int(np.count_nonzero(np.isfinite(dist))))
    return dist


def distances_to_targets(
    graph: Graph,
    source: int,
    targets: Iterable[int],
    counters: Counters = NULL_COUNTERS,
) -> Dict[int, float]:
    """Distances from ``source`` to each target; expansion stops early."""
    remaining = sorted(set(int(t) for t in targets))
    out: Dict[int, float] = {}
    if source in remaining:
        out[source] = 0.0
        remaining.remove(source)
    if not remaining:
        return out
    idx = np.asarray(remaining, dtype=np.int64)
    de = np.hypot(graph.x[idx] - graph.x[source], graph.y[idx] - graph.y[source])
    seed = float(de.max()) / graph.max_speed() * 2.0
    dist = _expand(
        graph, source, seed, lambda d: bool(np.isfinite(d[idx]).all())
    )
    td = dist[idx]
    finite = np.isfinite(td)
    if finite.all():
        dmax = float(td.max())
        counters.add("sssp_settled", int(np.count_nonzero(dist <= dmax)))
    else:
        counters.add(
            "sssp_settled", int(np.count_nonzero(np.isfinite(dist)))
        )
    for t, d in zip(remaining, td):
        out[t] = float(d) if np.isfinite(d) else INF
    return out


def nearest_objects(
    graph: Graph,
    objects: np.ndarray,
    query: int,
    k: int,
    counters: Counters = NULL_COUNTERS,
    counter_name: str = "expand_settled",
) -> list:
    """The k network-nearest of ``objects`` from ``query`` (INE kernel).

    ``objects`` is a sorted, deduplicated int64 array.  Returns
    ``[(distance, vertex), ...]`` sorted by ``(distance, vertex)`` —
    byte-identical to the reference INE loop's finalised answer — and
    records the settle-equivalent count under ``counter_name``.
    """
    m = len(objects)
    if m == 0 or k <= 0 or k > m:
        # A per-edge loop can never reach len(results) == k in these
        # cases, so it settles everything reachable before finishing.
        dist = sssp_distances(graph, query)
        counters.add(counter_name, int(np.count_nonzero(np.isfinite(dist))))
        if m == 0 or k <= 0:
            return []
        od = dist[objects]
        hits = np.flatnonzero(np.isfinite(od))
        order = np.lexsort((objects[hits], od[hits]))
        return [
            (float(od[hits[i]]), int(objects[hits[i]])) for i in order
        ]
    take = k
    de = np.hypot(
        graph.x[objects] - graph.x[query], graph.y[objects] - graph.y[query]
    )
    kth_euclid = float(np.partition(de, take - 1)[take - 1])
    seed = kth_euclid / graph.max_speed() * 2.0

    def enough(dist: np.ndarray) -> bool:
        # Every vertex within the round's radius limit has its exact
        # distance (shortest-path prefixes stay within the radius), so k
        # finite object distances mean the true k nearest are all known.
        return int(np.count_nonzero(np.isfinite(dist[objects]))) >= take

    dist = _expand(graph, query, seed, enough)
    od = dist[objects]
    finite_mask = np.isfinite(od)
    if int(np.count_nonzero(finite_mask)) >= take:
        idx = np.argpartition(od, take - 1)[:take]
        dk = float(od[idx].max())
        settled = int(np.count_nonzero(dist <= dk))
        order = np.lexsort((objects[idx], od[idx]))
        results = [
            (float(od[idx[i]]), int(objects[idx[i]])) for i in order
        ]
    else:
        # Fewer than k reachable objects: a per-edge loop drains the
        # whole heap, settling every reachable vertex.
        settled = int(np.count_nonzero(np.isfinite(dist)))
        hits = np.flatnonzero(finite_mask)
        order = np.lexsort((objects[hits], od[hits]))
        results = [
            (float(od[hits[i]]), int(objects[hits[i]])) for i in order
        ]
    counters.add(counter_name, settled)
    return results


def prepared_objects(objects: Iterable[int]) -> np.ndarray:
    """Sorted unique object ids as the int64 array the kernels expect."""
    return np.unique(np.fromiter((int(o) for o in objects), dtype=np.int64))
