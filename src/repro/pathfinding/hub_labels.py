"""Pruned hub labelling — the library's PHL stand-in.

The paper's fastest IER oracle is Pruned Highway Labelling (Akiba et al.,
ALENEX 2014).  PHL is a path-based refinement of the same authors' pruned
labelling framework; we implement the general pruned (landmark) labelling:

* process vertices in a hub order (most-central first — we reuse the CH
  contraction order reversed, a standard high-quality hub order);
* from each hub run a *pruned* Dijkstra: a vertex u reached at distance d
  is labelled (hub, d) only if the current labels cannot already prove
  dist(hub, u) <= d; pruned vertices are not expanded;
* a query merges the two sorted label arrays and minimises over common
  hubs — O(|label|) with no graph traversal, microsecond-scale, which is
  the property the IER-PHL experiments exercise.

Like PHL, the index is large (the paper's Figure 8 point) — label sizes
are reported by :meth:`size_bytes` / :meth:`average_label_size`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.utils.arrays import concat_ragged, ragged_row
from repro.utils.counters import BUILD_COUNTERS, Counters, NULL_COUNTERS
from repro.utils.pqueue import BinaryHeap

INF = float("inf")


class HubLabels:
    """Exact 2-hop labelling built with pruned Dijkstra."""

    name = "hub_labels"

    def __init__(self, graph: Graph, order: Optional[Sequence[int]] = None) -> None:
        self.graph = graph
        BUILD_COUNTERS.add("build:hub_labels")
        start = time.perf_counter()
        if order is None:
            order = self._default_order()
        self._build(list(order))
        self._build_time = time.perf_counter() - start

    def _default_order(self) -> List[int]:
        """Degree-descending order with a coordinate-centrality tiebreak.

        A cheap stand-in for the CH order: central, high-degree vertices
        make good hubs on road networks.  Callers wanting smaller labels
        can pass ``np.argsort(-ch.rank)`` explicitly.
        """
        g = self.graph
        degree = np.diff(g.vertex_start)
        cx, cy = float(np.mean(g.x)), float(np.mean(g.y))
        centrality = -((g.x - cx) ** 2 + (g.y - cy) ** 2)
        keys = degree * 1e6 + (centrality - centrality.min()) / (
            np.ptp(centrality) + 1e-12
        )
        return list(np.argsort(-keys))

    def _build(self, order: List[int]) -> None:
        n = self.graph.num_vertices
        # Per-vertex labels: parallel (hub-rank, distance) lists kept
        # sorted by hub rank so queries are merge joins.
        label_hubs: List[List[int]] = [[] for _ in range(n)]
        label_dists: List[List[float]] = [[] for _ in range(n)]
        hub_rank = np.full(n, -1, dtype=np.int64)
        for r, v in enumerate(order):
            hub_rank[v] = r

        graph = self.graph
        # Flat-list CSR mirrors (satellite of the kernels work): the
        # pruned Dijkstras below touch every edge many times, and list
        # indexing beats both the generator protocol and numpy scalar
        # reads in CPython.  Push order is identical to the old
        # ``graph.neighbors`` loop, so the labels are byte-for-byte.
        vs_l = graph.vertex_start.tolist()
        et_l = graph.edge_target.tolist()
        ew_l = graph.edge_weight.tolist()
        for r, hub in enumerate(order):
            # Pruned Dijkstra from this hub.
            dist = {hub: 0.0}
            settled = set()
            heap = BinaryHeap()
            heap.push(0.0, hub)
            hub_labels_h = label_hubs[hub]
            hub_dists_h = label_dists[hub]
            while heap:
                d, u = heap.pop()
                if u in settled:
                    continue
                settled.add(u)
                # Prune: can existing labels already certify d(hub, u) <= d?
                if self._query_merge(
                    hub_labels_h, hub_dists_h, label_hubs[u], label_dists[u]
                ) <= d:
                    continue
                label_hubs[u].append(r)
                label_dists[u].append(d)
                for i in range(vs_l[u], vs_l[u + 1]):
                    v = et_l[i]
                    nd = d + ew_l[i]
                    if nd < dist.get(v, INF):
                        dist[v] = nd
                        heap.push(nd, v)

        # Freeze into numpy arrays (compact, mirrors PHL's array labels).
        self._hubs = [np.asarray(h, dtype=np.int32) for h in label_hubs]
        self._dists = [np.asarray(d, dtype=np.float64) for d in label_dists]

    @staticmethod
    def _query_merge(
        hubs_a: Sequence[int],
        dists_a: Sequence[float],
        hubs_b: Sequence[int],
        dists_b: Sequence[float],
    ) -> float:
        """Merge-join two labels sorted by hub rank."""
        i = j = 0
        best = INF
        na, nb = len(hubs_a), len(hubs_b)
        while i < na and j < nb:
            ha, hb = hubs_a[i], hubs_b[j]
            if ha == hb:
                total = dists_a[i] + dists_b[j]
                if total < best:
                    best = total
                i += 1
                j += 1
            elif ha < hb:
                i += 1
            else:
                j += 1
        return best

    # ------------------------------------------------------------------
    # Oracle protocol
    # ------------------------------------------------------------------
    def distance(
        self, source: int, target: int, counters: Counters = NULL_COUNTERS
    ) -> float:
        if source == target:
            return 0.0
        counters.add("label_scans")
        return float(self._query_merge(
            self._hubs[source],
            self._dists[source],
            self._hubs[target],
            self._dists[target],
        ))

    def label(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """The (hub ranks, distances) label of vertex v."""
        return self._hubs[v], self._dists[v]

    def average_label_size(self) -> float:
        return float(np.mean([len(h) for h in self._hubs]))

    def build_time(self) -> float:
        return self._build_time

    def size_bytes(self) -> int:
        return sum(h.nbytes + d.nbytes for h, d in zip(self._hubs, self._dists))

    # ------------------------------------------------------------------
    # Serialization (persistent index store)
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Per-vertex labels flattened into hub/distance arrays + offsets."""
        hubs, off = concat_ragged(self._hubs, np.int32)
        dists, _ = concat_ragged(self._dists, np.float64)
        return {
            "hubs": hubs,
            "dists": dists,
            "label_off": off,
            "build_time": np.asarray(self._build_time),
        }

    @classmethod
    def from_arrays(cls, graph: Graph, arrays: Dict[str, np.ndarray]) -> "HubLabels":
        """Rehydrate without re-running the pruned Dijkstras."""
        self = cls.__new__(cls)
        self.graph = graph
        self._build_time = float(arrays["build_time"])
        off = arrays["label_off"]
        self._hubs = [
            ragged_row(arrays["hubs"], off, v) for v in range(graph.num_vertices)
        ]
        self._dists = [
            ragged_row(arrays["dists"], off, v) for v in range(graph.num_vertices)
        ]
        return self
