"""Pruned hub labelling — the library's PHL stand-in.

The paper's fastest IER oracle is Pruned Highway Labelling (Akiba et al.,
ALENEX 2014).  PHL is a path-based refinement of the same authors' pruned
labelling framework; we implement the general pruned (landmark) labelling:

* process vertices in a hub order (most-central first — we reuse the CH
  contraction order reversed, a standard high-quality hub order);
* from each hub run a *pruned* Dijkstra: a vertex u reached at distance d
  is labelled (hub, d) only if the current labels cannot already prove
  dist(hub, u) <= d; pruned vertices are not expanded;
* a query minimises ``d(s, h) + d(h, t)`` over the hubs the two labels
  share — O(|label|) with no graph traversal, microsecond-scale, which
  is the property the IER-PHL experiments exercise.

The labels are stored flat (``hubs``/``dists`` concatenated in vertex
order, ``label_off`` the offsets), which is also the store layout.
:meth:`HubLabels.distances` answers a source against many targets at
once: the source's label is scattered into a length-V array indexed by
hub rank, every target's label slice is gathered against it, and one
``np.minimum.reduceat`` takes each target's minimum.

Like PHL, the index is large (the paper's Figure 8 point) — label sizes
are reported by :meth:`size_bytes` / :meth:`average_label_size`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.utils.arrays import concat_ragged, ragged_min
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
        # sorted by hub rank so the pruning test is a merge join.
        hub_lists: List[List[int]] = [[] for _ in range(n)]
        dist_lists: List[List[float]] = [[] for _ in range(n)]
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
            hub_labels_h = hub_lists[hub]
            hub_dists_h = dist_lists[hub]
            while heap:
                d, u = heap.pop()
                if u in settled:
                    continue
                settled.add(u)
                # Prune: can existing labels already certify d(hub, u) <= d?
                if self._merge(
                    hub_labels_h, hub_dists_h, hub_lists[u], dist_lists[u]
                ) <= d:
                    continue
                hub_lists[u].append(r)
                dist_lists[u].append(d)
                for i in range(vs_l[u], vs_l[u + 1]):
                    v = et_l[i]
                    nd = d + ew_l[i]
                    if nd < dist.get(v, INF):
                        dist[v] = nd
                        heap.push(nd, v)

        # Freeze into flat arrays (compact, mirrors PHL's array labels).
        self.hubs, self.label_off = concat_ragged(hub_lists, np.int32)
        self.dists, _ = concat_ragged(dist_lists, np.float64)

    @staticmethod
    def _merge(
        hubs_a: Sequence[int],
        dists_a: Sequence[float],
        hubs_b: Sequence[int],
        dists_b: Sequence[float],
    ) -> float:
        """Merge-join two label lists sorted by hub rank (the build's
        pruning test)."""
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
    def distances(
        self,
        source: int,
        targets: Sequence[int],
        counters: Counters = NULL_COUNTERS,
    ) -> np.ndarray:
        """Exact network distances from ``source`` to each of ``targets``.

        ``d(s, s)`` needs no special case: every label holds a hub at
        distance 0 (the vertex itself, or the earlier hub whose label
        pruned it at distance 0).
        """
        targets = np.asarray(targets, dtype=np.int64)
        hubs, dists, off = self.hubs, self.dists, self.label_off
        lo, hi = off[source], off[source + 1]
        via = np.full(self.graph.num_vertices, INF)
        via[hubs[lo:hi]] = dists[lo:hi]
        out = ragged_min(off, targets, lambda at: via[hubs[at]] + dists[at])
        if counters.enabled:
            counters.add("label_scans", int(np.count_nonzero(targets != source)))
        return out

    def distance(
        self, source: int, target: int, counters: Counters = NULL_COUNTERS
    ) -> float:
        return float(self.distances(source, (target,), counters)[0])

    def label(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """The (hub ranks, distances) label of vertex v."""
        lo, hi = self.label_off[v], self.label_off[v + 1]
        return self.hubs[lo:hi], self.dists[lo:hi]

    def average_label_size(self) -> float:
        return float(np.mean(np.diff(self.label_off)))

    def build_time(self) -> float:
        return self._build_time

    def size_bytes(self) -> int:
        return int(self.hubs.nbytes + self.dists.nbytes)

    # ------------------------------------------------------------------
    # Serialization (persistent index store)
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The flat labels: hub/distance arrays + per-vertex offsets."""
        return {
            "hubs": self.hubs,
            "dists": self.dists,
            "label_off": self.label_off,
            "build_time": np.asarray(self._build_time),
        }

    @classmethod
    def from_arrays(cls, graph: Graph, arrays: Dict[str, np.ndarray]) -> "HubLabels":
        """Rehydrate without re-running the pruned Dijkstras."""
        self = cls.__new__(cls)
        self.graph = graph
        self._build_time = float(arrays["build_time"])
        self.hubs = arrays["hubs"]
        self.dists = arrays["dists"]
        self.label_off = arrays["label_off"]
        return self
