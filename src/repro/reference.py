"""Reference implementations: the per-edge interpreter loops.

Every algorithm in this library has exactly one production
implementation (see ``docs/performance.md`` for how each was chosen).
This module holds the *other* thing the paper's methodology needs: the
straightforward loops those implementations are checked against and
that Figure 7's implementation ladder plots —

* :func:`dijkstra_distance`, :func:`dijkstra_sssp`,
  :func:`dijkstra_to_targets` — binary-heap Dijkstra over the CSR arrays,
  one settle and one edge at a time;
* :class:`ReferenceINE` — INE on each of the four Figure 7 rungs:
  ``first_cut`` (decrease-key heap, dict distances, set settled,
  per-vertex adjacency objects), ``pqueue`` (+ no-decrease-key heap),
  ``settled`` (+ byte-array settled container) and ``graph`` (+ flat CSR
  arrays; the paper's final rung).

They return the same answers and record the same ``sssp_settled`` /
``expand_settled`` counters as the production code, which is what
``tests/test_kernels.py`` asserts.

Who may import this module: the tests, ``fig07_ine_ablation``, and the
registry entry of the auxiliary method ``ine-graph`` — the engine's
terminal degradation rung, which must not share a code path with the
kernels it stands in for.  Nothing under ``repro.knn``, ``repro.index``,
``repro.pathfinding``, ``repro.kernels`` or ``repro.server`` does.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.kernels.scratch import borrow
from repro.knn.base import KNNAlgorithm, KNNResult
from repro.utils.bitset import BitArray
from repro.utils.counters import Counters, NULL_COUNTERS
from repro.utils.pqueue import BinaryHeap, DecreaseKeyHeap

INF = float("inf")

VARIANTS = ("first_cut", "pqueue", "settled", "graph")


def dijkstra_distance(
    graph: Graph,
    source: int,
    target: int,
    counters: Counters = NULL_COUNTERS,
) -> float:
    """Point-to-point network distance."""
    if source == target:
        return 0.0
    with borrow(graph) as scratch:
        gen = scratch.begin()
        dist, stamp, settled = scratch.dist, scratch.stamp, scratch.settled
        heap = BinaryHeap()
        dist[source] = 0.0
        stamp[source] = gen
        heap.push(0.0, source)
        vertex_start = graph.vertex_start
        edge_target = graph.edge_target
        edge_weight = graph.edge_weight
        while heap:
            d, u = heap.pop()
            if settled[u] == gen:
                continue
            settled[u] = gen
            counters.add("sssp_settled")
            if u == target:
                return d
            for i in range(vertex_start[u], vertex_start[u + 1]):
                v = int(edge_target[i])
                nd = d + edge_weight[i]
                if stamp[v] != gen or nd < dist[v]:
                    dist[v] = nd
                    stamp[v] = gen
                    heap.push(nd, v)
    return INF


def dijkstra_sssp(
    graph: Graph,
    source: int,
    cutoff: float = INF,
    counters: Counters = NULL_COUNTERS,
) -> np.ndarray:
    """Single-source distances to every vertex (optionally cut off).

    Entries at distance <= ``cutoff`` are exact.  Beyond the cutoff this
    loop leaves whatever tentative values its frontier held, where the
    production kernel reports ``inf`` — compare the settled region only.
    """
    with borrow(graph) as scratch:
        gen = scratch.begin()
        dist, stamp, settled = scratch.dist, scratch.stamp, scratch.settled
        heap = BinaryHeap()
        dist[source] = 0.0
        stamp[source] = gen
        heap.push(0.0, source)
        vertex_start = graph.vertex_start
        edge_target = graph.edge_target
        edge_weight = graph.edge_weight
        while heap:
            d, u = heap.pop()
            if settled[u] == gen:
                continue
            if d > cutoff:
                break
            settled[u] = gen
            counters.add("sssp_settled")
            for i in range(vertex_start[u], vertex_start[u + 1]):
                v = int(edge_target[i])
                nd = d + edge_weight[i]
                if stamp[v] != gen or nd < dist[v]:
                    dist[v] = nd
                    stamp[v] = gen
                    heap.push(nd, v)
        return np.where(stamp == gen, dist, INF)


def dijkstra_to_targets(
    graph: Graph,
    source: int,
    targets: Iterable[int],
    counters: Counters = NULL_COUNTERS,
) -> Dict[int, float]:
    """Distances from ``source`` to each of ``targets``; stops early."""
    remaining = set(int(t) for t in targets)
    out: Dict[int, float] = {}
    if source in remaining:
        out[source] = 0.0
        remaining.discard(source)
    if not remaining:
        return out
    with borrow(graph) as scratch:
        gen = scratch.begin()
        dist, stamp, settled = scratch.dist, scratch.stamp, scratch.settled
        heap = BinaryHeap()
        dist[source] = 0.0
        stamp[source] = gen
        heap.push(0.0, source)
        vertex_start = graph.vertex_start
        edge_target = graph.edge_target
        edge_weight = graph.edge_weight
        while heap and remaining:
            d, u = heap.pop()
            if settled[u] == gen:
                continue
            settled[u] = gen
            counters.add("sssp_settled")
            if u in remaining:
                out[u] = d
                remaining.discard(u)
                if not remaining:
                    break
            for i in range(vertex_start[u], vertex_start[u + 1]):
                v = int(edge_target[i])
                nd = d + edge_weight[i]
                if stamp[v] != gen or nd < dist[v]:
                    dist[v] = nd
                    stamp[v] = gen
                    heap.push(nd, v)
    for t in remaining:
        out[t] = INF
    return out


class ReferenceINE(KNNAlgorithm):
    """INE on one rung of the Figure 7 implementation ladder."""

    name = "ine"

    def __init__(
        self,
        graph: Graph,
        objects: Sequence[int],
        variant: str = "graph",
    ) -> None:
        if variant not in VARIANTS:
            raise ValueError(f"unknown INE variant {variant!r}")
        self.graph = graph
        self.variant = variant
        self.object_set: Set[int] = set(int(o) for o in objects)
        self.object_flags = BitArray(graph.num_vertices)
        for o in self.object_set:
            self.object_flags.set(o)
        if variant in ("first_cut", "pqueue", "settled"):
            # Pre-"Graph" representation: per-vertex adjacency objects.
            self._adjacency: List[List[Tuple[int, float]]] = [
                list(graph.neighbors(u)) for u in range(graph.num_vertices)
            ]
        else:
            # "Graph" representation: flat offset/target/weight arrays.
            # CPython's equivalent of the paper's cache-friendly CSR
            # arrays is flat *lists* — C-contiguous storage without the
            # per-element boxing cost numpy scalar indexing incurs.
            self._vs = graph.vertex_start.tolist()
            self._et = graph.edge_target.tolist()
            self._ew = graph.edge_weight.tolist()

    def update_objects(
        self, added: Sequence[int], removed: Sequence[int]
    ) -> None:
        """Apply a net object-set change in place (live POI deltas)."""
        for o in removed:
            o = int(o)
            self.object_set.discard(o)
            self.object_flags.unset(o)
        for o in added:
            o = int(o)
            self.object_set.add(o)
            self.object_flags.set(o)

    def knn(
        self, query: int, k: int, counters: Counters = NULL_COUNTERS
    ) -> KNNResult:
        if self.variant == "graph":
            return self._knn_graph(query, k, counters)
        if self.variant == "settled":
            return self._knn_settled(query, k, counters)
        if self.variant == "pqueue":
            return self._knn_pqueue(query, k, counters)
        return self._knn_first_cut(query, k, counters)

    def _knn_graph(self, query: int, k: int, counters: Counters) -> KNNResult:
        graph = self.graph
        n = graph.num_vertices
        dist = [INF] * n
        settled = bytearray(n)
        heap = BinaryHeap()
        dist[query] = 0.0
        heap.push(0.0, query)
        results: List[Tuple[float, int]] = []
        vs, et, ew = self._vs, self._et, self._ew
        is_object = self.object_flags
        count = counters.enabled
        while heap:
            d, u = heap.pop()
            if settled[u]:
                continue
            settled[u] = 1
            if count:
                counters.add("expand_settled")
            if is_object.get(u):
                results.append((d, u))
                if len(results) == k:
                    break
            for i in range(vs[u], vs[u + 1]):
                v = et[i]
                nd = d + ew[i]
                if nd < dist[v]:
                    dist[v] = nd
                    heap.push(nd, v)
        return self._finalise(results, k)

    def _knn_settled(
        self, query: int, k: int, counters: Counters = NULL_COUNTERS
    ) -> KNNResult:
        adjacency = self._adjacency
        dist: Dict[int, float] = {query: 0.0}
        settled = BitArray(self.graph.num_vertices)
        heap = BinaryHeap()
        heap.push(0.0, query)
        results: List[Tuple[float, int]] = []
        object_set = self.object_set
        count = counters.enabled
        while heap:
            d, u = heap.pop()
            if settled.get(u):
                continue
            settled.set(u)
            if count:
                counters.add("expand_settled")
            if u in object_set:
                results.append((d, u))
                if len(results) == k:
                    break
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist.get(v, INF):
                    dist[v] = nd
                    heap.push(nd, v)
        return self._finalise(results, k)

    def _knn_pqueue(
        self, query: int, k: int, counters: Counters = NULL_COUNTERS
    ) -> KNNResult:
        adjacency = self._adjacency
        dist: Dict[int, float] = {query: 0.0}
        settled: Set[int] = set()
        heap = BinaryHeap()
        heap.push(0.0, query)
        results: List[Tuple[float, int]] = []
        object_set = self.object_set
        count = counters.enabled
        while heap:
            d, u = heap.pop()
            if u in settled:
                continue
            settled.add(u)
            if count:
                counters.add("expand_settled")
            if u in object_set:
                results.append((d, u))
                if len(results) == k:
                    break
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist.get(v, INF):
                    dist[v] = nd
                    heap.push(nd, v)
        return self._finalise(results, k)

    def _knn_first_cut(
        self, query: int, k: int, counters: Counters = NULL_COUNTERS
    ) -> KNNResult:
        adjacency = self._adjacency
        heap = DecreaseKeyHeap()
        heap.push(0.0, query)
        settled: Set[int] = set()
        results: List[Tuple[float, int]] = []
        object_set = self.object_set
        count = counters.enabled
        while heap:
            d, u = heap.pop()
            settled.add(u)
            if count:
                counters.add("expand_settled")
            if u in object_set:
                results.append((d, u))
                if len(results) == k:
                    break
            for v, w in adjacency[u]:
                if v not in settled:
                    heap.push(d + w, v)
        return self._finalise(results, k)
