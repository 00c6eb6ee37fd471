"""Contraction Hierarchies (Geisberger et al., WEA 2008).

One of the fast oracles IER is combined with in Section 5 ("CH"), and the
hierarchy Transit Node Routing is built on.  Standard construction:

* node ordering by *edge difference* + *deleted neighbours*, maintained
  lazily (re-evaluate the top of the priority queue before contracting);
* *witness searches* (budgeted Dijkstra that ignores the contracted node)
  decide which shortcuts are necessary;
* the upward graph (original edges and shortcuts towards higher rank) is
  one scipy CSR matrix, :attr:`ContractionHierarchy.up`;
* a query runs both upward searches to exhaustion in one C Dijkstra
  (``csgraph.dijkstra`` with ``indices=[s, t]``); the answer is the best
  meeting vertex.  A batch of targets shares one sweep
  (``indices=[s, t1, t2, ...]``).  :func:`repro.reference.ch_distance`
  is the bidirectional dict-and-heap loop it is checked against.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.graph.graph import Graph
from repro.updates import RepairUnavailable
from repro.utils.arrays import concat_ragged, ragged_row
from repro.utils.counters import BUILD_COUNTERS, Counters, NULL_COUNTERS
from repro.utils.pqueue import BinaryHeap

INF = float("inf")


class ContractionHierarchy:
    """CH index over a road network.

    Parameters
    ----------
    graph:
        The road network.
    witness_settle_limit:
        Budget (settled vertices) for each witness search; smaller budgets
        build faster but insert more (harmless) shortcuts.
    """

    name = "ch"

    def __init__(self, graph: Graph, witness_settle_limit: int = 40) -> None:
        self.graph = graph
        self.witness_settle_limit = witness_settle_limit
        BUILD_COUNTERS.add("build:ch")
        start = time.perf_counter()
        self._build()
        self._build_time = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _fresh_overlay(self) -> List[Dict[int, float]]:
        """Overlay adjacency from the graph's current weights."""
        n = self.graph.num_vertices
        overlay: List[Dict[int, float]] = [dict() for _ in range(n)]
        for u in range(n):
            targets, weights = self.graph.neighbor_slice(u)
            for v, w in zip(targets.tolist(), weights.tolist()):
                prev = overlay[u].get(v)
                if prev is None or w < prev:
                    overlay[u][v] = w
        return overlay

    def _simulate(
        self,
        overlay: List[Dict[int, float]],
        contracted: np.ndarray,
        v: int,
    ) -> Tuple[int, List[Tuple[int, int, float]]]:
        """Shortcuts needed if v were contracted now, and the edge diff."""
        neighbors = [(u, w) for u, w in overlay[v].items() if not contracted[u]]
        needed: List[Tuple[int, int, float]] = []
        for i in range(len(neighbors)):
            u, wu = neighbors[i]
            # Witness search from u avoiding v, bounded by the longest
            # candidate shortcut through v.
            limit = max(wu + wv for _, wv in neighbors[i + 1 :]) if i + 1 < len(neighbors) else 0.0
            witness = self._witness_distances(overlay, contracted, u, v, limit)
            for j in range(i + 1, len(neighbors)):
                w2, wv = neighbors[j]
                through = wu + wv
                if witness.get(w2, INF) > through:
                    needed.append((u, w2, through))
        return len(needed) - len(neighbors), needed

    def _assemble_upward(
        self, shortcuts: List[Tuple[int, int, float]]
    ) -> None:
        """Upward graph as one CSR: per vertex pair the lightest original
        edge or shortcut, kept where it points towards higher rank."""
        graph = self.graph
        n = graph.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.vertex_start))
        dst = graph.edge_target.astype(np.int64)
        weight = np.asarray(graph.edge_weight, dtype=np.float64)
        if shortcuts:
            su, sv, sw = (np.asarray(col) for col in zip(*shortcuts))
            src = np.concatenate([src, su, sv])
            dst = np.concatenate([dst, sv, su])
            weight = np.concatenate([weight, sw, sw])
        upward = self.rank[dst] > self.rank[src]
        src, dst, weight = src[upward], dst[upward], weight[upward]
        order = np.lexsort((weight, dst, src))
        src, dst, weight = src[order], dst[order], weight[order]
        first = np.ones(len(src), dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        indptr = np.searchsorted(src[first], np.arange(n + 1))
        self.up = csr_matrix(
            (weight[first], dst[first].astype(np.int32), indptr.astype(np.int32)),
            shape=(n, n),
        )
        self.num_shortcuts = len(shortcuts)

    def _build(self) -> None:
        n = self.graph.num_vertices
        # Overlay adjacency, mutated during contraction.
        overlay = self._fresh_overlay()

        self.rank = np.full(n, -1, dtype=np.int64)
        deleted_neighbors = np.zeros(n, dtype=np.int64)
        contracted = np.zeros(n, dtype=bool)
        # Shortcut provenance per contracted (middle) vertex, kept for
        # incremental weight-delta repair (replay, see
        # apply_weight_deltas).
        applied: List[List[Tuple[int, int, float]]] = [[] for _ in range(n)]

        heap = BinaryHeap()
        for v in range(n):
            ed, _ = self._simulate(overlay, contracted, v)
            heap.push(float(ed), v)

        next_rank = 0
        while heap:
            _, v = heap.pop()
            if contracted[v]:
                continue
            # Lazy re-evaluation: if v's priority got stale, re-push.
            ed, needed = self._simulate(overlay, contracted, v)
            priority = float(ed + deleted_neighbors[v])
            if heap and priority > heap.peek_key():
                heap.push(priority, v)
                continue
            # Contract v.
            contracted[v] = True
            self.rank[v] = next_rank
            next_rank += 1
            for u, w2, through in needed:
                prev = overlay[u].get(w2)
                if prev is None or through < prev:
                    overlay[u][w2] = through
                    overlay[w2][u] = through
                    applied[v].append((u, w2, through))
            for u in overlay[v]:
                if not contracted[u]:
                    deleted_neighbors[u] += 1

        self._applied = applied
        self._assemble_upward([s for lst in applied for s in lst])

    # ------------------------------------------------------------------
    # Incremental repair (live weight deltas)
    # ------------------------------------------------------------------
    def apply_weight_deltas(
        self, changed: List[Tuple[int, int, float, float]]
    ) -> Dict[str, int]:
        """Repair the hierarchy after in-place edge-weight changes.

        A fixed-rank-order replay: vertices are re-processed in their
        existing contraction order over a fresh overlay.  *Dirty*
        vertices (changed-edge endpoints plus a cascade: the endpoints
        of any shortcut whose recorded decision no longer matches) run
        full witness searches again; *clean* vertices replay their
        recorded shortcuts with weights re-derived from the current
        overlay.  For weight *increases* witness paths can lengthen in
        ways replay cannot bound, so every vertex is marked dirty — a
        full ordered re-contraction that still skips the build's
        priority-queue ordering phase.

        The repaired hierarchy answers exact distances (asserted against
        Dijkstra by the tests); the shortcut *set* may be a harmless
        superset of a from-scratch rebuild's, so CH-backed methods are
        excluded from the byte-identity harness.  Raises
        :class:`RepairUnavailable` when shortcut provenance is missing
        (hierarchies loaded from pre-provenance artifacts).
        """
        if getattr(self, "_applied", None) is None:
            raise RepairUnavailable(
                "contraction hierarchy has no shortcut provenance; rebuild"
            )
        counters = {
            "vertices_recontracted": 0,
            "shortcuts_replayed": 0,
            "full_recontraction": 0,
        }
        if not changed:
            return counters
        n = self.graph.num_vertices
        dirty = np.zeros(n, dtype=bool)
        if any(new > old for _u, _v, old, new in changed):
            dirty[:] = True
            counters["full_recontraction"] = 1
        else:
            for u, v, _old, _new in changed:
                dirty[u] = dirty[v] = True
        overlay = self._fresh_overlay()
        contracted = np.zeros(n, dtype=bool)
        old_applied = self._applied
        new_applied: List[List[Tuple[int, int, float]]] = [[] for _ in range(n)]
        for v in np.argsort(self.rank).tolist():
            if not dirty[v] and any(
                u not in overlay[v] or w2 not in overlay[v]
                for u, w2, _w in old_applied[v]
            ):
                # Defensive: a missing recorded neighbour means a replay
                # invariant broke upstream; recompute this vertex.
                dirty[v] = True
            if dirty[v]:
                _, needed = self._simulate(overlay, contracted, v)
                counters["vertices_recontracted"] += 1
            else:
                needed = [
                    (u, w2, overlay[v][u] + overlay[v][w2])
                    for u, w2, _w in old_applied[v]
                ]
                counters["shortcuts_replayed"] += len(needed)
            applied = new_applied[v]
            for u, w2, through in needed:
                prev = overlay[u].get(w2)
                if prev is None or through < prev:
                    overlay[u][w2] = through
                    overlay[w2][u] = through
                    applied.append((u, w2, through))
            if dirty[v]:
                # Cascade: shortcut decisions that changed invalidate the
                # recorded decisions of their (higher-rank) endpoints.
                old_map = {(a, b): w for a, b, w in old_applied[v]}
                new_map = {(a, b): w for a, b, w in applied}
                for a, b in set(old_map) | set(new_map):
                    if old_map.get((a, b)) != new_map.get((a, b)):
                        dirty[a] = dirty[b] = True
            contracted[v] = True
        self._applied = new_applied
        self._assemble_upward([s for lst in new_applied for s in lst])
        return counters

    def _witness_distances(
        self,
        overlay: List[Dict[int, float]],
        contracted: np.ndarray,
        source: int,
        avoid: int,
        limit: float,
    ) -> Dict[int, float]:
        """Budgeted Dijkstra from ``source`` avoiding ``avoid``."""
        dist: Dict[int, float] = {source: 0.0}
        settled: Set[int] = set()
        heap = BinaryHeap()
        heap.push(0.0, source)
        budget = self.witness_settle_limit
        while heap and budget > 0:
            d, u = heap.pop()
            if u in settled:
                continue
            if d > limit:
                break
            settled.add(u)
            budget -= 1
            for v, w in overlay[u].items():
                if v == avoid or contracted[v]:
                    continue
                nd = d + w
                if nd < dist.get(v, INF):
                    dist[v] = nd
                    heap.push(nd, v)
        return dist

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distances(
        self,
        source: int,
        targets: Sequence[int],
        counters: Counters = NULL_COUNTERS,
    ) -> np.ndarray:
        """Exact network distances from ``source`` to each of ``targets``:
        the upward searches from the source and from every target run to
        exhaustion in one C Dijkstra, then each target's best meeting
        vertex.  ``bidir_settled`` counts, per target other than the
        source, the vertices its two searches settle (their finite
        entries)."""
        targets = np.asarray(targets, dtype=np.int64)
        out = np.zeros(len(targets))
        others = targets != source
        if not others.any():
            return out
        rest = targets[others]
        dist = _csgraph_dijkstra(
            self.up, directed=True, indices=np.concatenate(([source], rest))
        )
        if counters.enabled:
            finite = np.isfinite(dist)
            counters.add(
                "bidir_settled",
                len(rest) * int(np.count_nonzero(finite[0]))
                + int(np.count_nonzero(finite[1:])),
            )
        out[others] = (dist[0] + dist[1:]).min(axis=1)
        return out

    def distance(
        self, source: int, target: int, counters: Counters = NULL_COUNTERS
    ) -> float:
        """Exact network distance (:meth:`distances` for one target)."""
        return float(self.distances(source, (target,), counters)[0])

    # ------------------------------------------------------------------
    # Oracle protocol / bookkeeping
    # ------------------------------------------------------------------
    def build_time(self) -> float:
        return self._build_time

    def size_bytes(self) -> int:
        """Approximate in-memory footprint (upward edges + ranks)."""
        return self.up.nnz * 12 + self.rank.nbytes

    # ------------------------------------------------------------------
    # Serialization (persistent index store)
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Ranks plus the upward graph's CSR arrays."""
        arrays = {
            "rank": self.rank,
            "up_target": self.up.indices,
            "up_weight": self.up.data,
            "up_off": self.up.indptr,
            "num_shortcuts": np.asarray(self.num_shortcuts),
            "witness_settle_limit": np.asarray(self.witness_settle_limit),
            "build_time": np.asarray(self._build_time),
        }
        # Shortcut provenance (per middle vertex) enables in-place
        # weight-delta repair after a reload.
        if getattr(self, "_applied", None) is not None:
            arrays["applied_u"], arrays["applied_off"] = concat_ragged(
                [
                    np.asarray([r[0] for r in lst], dtype=np.int64)
                    for lst in self._applied
                ],
                np.int64,
            )
            arrays["applied_v"], _ = concat_ragged(
                [
                    np.asarray([r[1] for r in lst], dtype=np.int64)
                    for lst in self._applied
                ],
                np.int64,
            )
            arrays["applied_w"], _ = concat_ragged(
                [
                    np.asarray([r[2] for r in lst], dtype=np.float64)
                    for lst in self._applied
                ],
                np.float64,
            )
        return arrays

    @classmethod
    def from_arrays(
        cls, graph: Graph, arrays: Dict[str, np.ndarray]
    ) -> "ContractionHierarchy":
        """Rehydrate without re-running contraction; the upward CSR is
        built over the stored arrays without copying them."""
        self = cls.__new__(cls)
        self.graph = graph
        self.witness_settle_limit = int(arrays["witness_settle_limit"])
        self.num_shortcuts = int(arrays["num_shortcuts"])
        self._build_time = float(arrays["build_time"])
        self.rank = np.asarray(arrays["rank"], dtype=np.int64)
        n = graph.num_vertices
        self.up = csr_matrix(
            (arrays["up_weight"], arrays["up_target"], arrays["up_off"]),
            shape=(n, n),
        )
        if "applied_off" in arrays:
            aoff = arrays["applied_off"]
            self._applied = [
                [
                    (int(a), int(b), float(w))
                    for a, b, w in zip(
                        ragged_row(arrays["applied_u"], aoff, v),
                        ragged_row(arrays["applied_v"], aoff, v),
                        ragged_row(arrays["applied_w"], aoff, v),
                    )
                ]
                for v in range(graph.num_vertices)
            ]
        else:
            # Pre-provenance artifact: queries work, in-place repair
            # does not (apply_weight_deltas raises RepairUnavailable).
            self._applied = None
        return self
