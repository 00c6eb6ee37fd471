"""Whole-frontier SSSP kernels (C-level Dijkstra over the CSR arrays).

A per-edge loop (:mod:`repro.reference`) runs Dijkstra one vertex at a
time in the interpreter.  When the control flow does not need to observe
individual settles — point-to-point distance, bounded SSSP,
k-nearest-object search — the entire expansion can instead run inside
``scipy.sparse.csgraph.dijkstra`` over :meth:`Graph.to_csr_matrix`, with
a geometrically expanding radius limit so the kernel settles roughly the
same region the loop would, not the whole network (or over another CSR
on the same vertices: ROAD's object-set overlay).

Settled-vertex accounting
-------------------------
The reference loops count every vertex they settle.  These kernels report
the *settle-equivalent* count: the number of vertices whose distance does
not exceed the query's stopping distance, which is exactly the loop's
count whenever no two vertices sit at the same distance (the stopping
vertex is then the unique last settle; vertices tied with it that the
loop had not popped yet are counted too).  On real-valued road networks
exact distance ties have measure zero; the production-vs-reference guard
in ``tests/test_kernels.py`` asserts this rule on every graph it touches,
so a divergence cannot slip through silently.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
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
    graph: Graph, source: int, limit: float = INF, matrix: Optional[csr_matrix] = None
) -> np.ndarray:
    """Exact distances from ``source`` to every vertex within ``limit``,
    over ``matrix`` (default: the graph's own CSR).

    Vertices further than ``limit`` report ``inf`` (the reference loop's
    bounded SSSP leaves tentative frontier values there instead — callers
    must only rely on entries at or below the cutoff).
    """
    # Every SSSP flow (p2p, bounded, targets, INE and ROAD nearest
    # objects) funnels through here, so one fault point covers them all.
    fault_check("kernel.sssp")
    if matrix is None:
        matrix = graph.to_csr_matrix()
    if np.isfinite(limit):
        return _csgraph_dijkstra(matrix, directed=True, indices=source, limit=limit)
    return _csgraph_dijkstra(matrix, directed=True, indices=source)


def _expand(graph: Graph, source: int, radius: float, done, matrix=None) -> np.ndarray:
    """Run expansion rounds until ``done(dist)`` or the sweep was full.

    ``done`` receives the distance array of the current round and returns
    True to stop.  The final round always runs unbounded, so ``done``
    never succeeding (an unreachable target) still terminates with the
    full SSSP.
    """
    radius = radius if radius > 0 and np.isfinite(radius) else _fallback_radius(graph)
    for _ in range(48):
        dist = sssp_distances(graph, source, radius, matrix)
        if done(dist):
            return dist
        radius *= _GROWTH
    return sssp_distances(graph, source, INF, matrix)


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
    matrix: Optional[csr_matrix] = None,
) -> Tuple[List[Tuple[float, int]], np.ndarray]:
    """The k network-nearest of ``objects`` from ``query`` (INE kernel).

    ``matrix`` is the CSR searched: the graph's own by default, or a
    derived graph over the same vertices that keeps every object's
    distance exact (ROAD's overlay); ``graph`` supplies the coordinates
    that seed the radius.  ``objects`` is a sorted, deduplicated int64
    array.  Returns ``[(distance, vertex), ...]`` sorted by ``(distance,
    vertex)`` — byte-identical to the reference loops' finalised answer —
    and the boolean mask of settle-equivalent vertices, from which each
    caller derives its counters.
    """
    if 0 < k <= len(objects):
        de = np.hypot(
            graph.x[objects] - graph.x[query], graph.y[objects] - graph.y[query]
        )
        kth_euclid = float(np.partition(de, k - 1)[k - 1])
        seed = kth_euclid / graph.max_speed() * 2.0

        def enough(dist: np.ndarray) -> bool:
            # Every vertex within the round's radius limit has its exact
            # distance (shortest-path prefixes stay within the radius), so
            # k finite object distances mean the true k nearest are known.
            return int(np.count_nonzero(np.isfinite(dist[objects]))) >= k

        dist = _expand(graph, query, seed, enough, matrix)
    else:
        # A per-edge loop can never reach len(results) == k here.
        dist = sssp_distances(graph, query, INF, matrix)
    od = dist[objects]
    finite = np.isfinite(od)
    if 0 < k <= np.count_nonzero(finite):
        idx = np.argpartition(od, k - 1)[:k]
        dk = float(od[idx].max())
        if np.count_nonzero(od <= dk) > k:
            # Objects tie at the k-th distance: take them by vertex id
            # (``objects`` ascends), as a loop popping (distance, vertex)
            # pairs does.
            closer = np.flatnonzero(od < dk)
            idx = np.concatenate(
                (closer, np.flatnonzero(od == dk)[: k - len(closer)])
            )
        settled = dist <= dk
    else:
        # Fewer than k reachable objects (or k <= 0): a per-edge loop
        # drains the whole heap, settling every reachable vertex.
        settled = np.isfinite(dist)
        idx = np.flatnonzero(finite & (k > 0))  # none when k <= 0
    order = idx[np.lexsort((objects[idx], od[idx]))]
    return [(float(od[i]), int(objects[i])) for i in order], settled


def prepared_objects(objects: Iterable[int]) -> np.ndarray:
    """Sorted unique object ids as the int64 array the kernels expect."""
    return np.unique(np.fromiter((int(o) for o in objects), dtype=np.int64))
