"""Dijkstra's algorithm.

:func:`dijkstra_distance`, :func:`dijkstra_sssp` and
:func:`dijkstra_to_targets` — the "Dijk" IER oracle and the ground truth
of most tests — are the whole-frontier C-level expansions of
:mod:`repro.kernels.sssp` under their algorithm names.  The per-edge
interpreter loops they are checked against live in
:mod:`repro.reference`; they return identical distances and record
identical ``sssp_settled`` counters.

:func:`dijkstra_path` needs per-settle control (parent pointers) and
stays an interpreter loop.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.kernels.sssp import distances_to_targets, p2p_distance, sssp_bounded
from repro.utils.bitset import BitArray
from repro.utils.pqueue import BinaryHeap

INF = float("inf")

dijkstra_distance = p2p_distance
dijkstra_sssp = sssp_bounded
dijkstra_to_targets = distances_to_targets


def dijkstra_path(
    graph: Graph, source: int, target: int
) -> Tuple[float, List[int]]:
    """Point-to-point distance and the vertex sequence of a shortest path."""
    if source == target:
        return 0.0, [source]
    n = graph.num_vertices
    dist = np.full(n, INF)
    parent = np.full(n, -1, dtype=np.int64)
    settled = BitArray(n)
    heap = BinaryHeap()
    dist[source] = 0.0
    heap.push(0.0, source)
    vertex_start = graph.vertex_start
    edge_target = graph.edge_target
    edge_weight = graph.edge_weight
    while heap:
        d, u = heap.pop()
        if settled.get(u):
            continue
        settled.set(u)
        if u == target:
            path = [target]
            while path[-1] != source:
                path.append(int(parent[path[-1]]))
            path.reverse()
            return d, path
        for i in range(vertex_start[u], vertex_start[u + 1]):
            v = int(edge_target[i])
            nd = d + edge_weight[i]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heap.push(nd, v)
    return INF, []


class DijkstraOracle:
    """Distance-oracle facade over plain Dijkstra (the "Dijk" IER variant).

    Implements the shared oracle protocol: ``distance(s, t)`` plus optional
    source-side state reuse via ``start_source``/``distance_from_source``
    (Dijkstra has nothing to reuse; each query runs cold, which is exactly
    why IER-Dijk is slow in Figure 4).
    """

    name = "dijkstra"

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    def distance(self, source: int, target: int) -> float:
        return dijkstra_distance(self.graph, source, target)

    def build_time(self) -> float:
        return 0.0

    def size_bytes(self) -> int:
        return 0
