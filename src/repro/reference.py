"""Reference implementations: the per-edge interpreter loops.

Every algorithm in this library has exactly one production
implementation (see ``docs/performance.md`` for how each was chosen).
This module holds the *other* thing the paper's methodology needs: the
straightforward loops those implementations are checked against and
that Figure 7's implementation ladder plots —

* :func:`dijkstra_distance`, :func:`dijkstra_sssp`,
  :func:`dijkstra_to_targets` — binary-heap Dijkstra over the CSR arrays,
  one settle and one edge at a time, on a fresh distance array per call;
* :func:`dijkstra_restricted` — SSSP inside a vertex subset, the oracle
  for G-tree leaf matrices and ROAD shortcuts;
* :class:`DecreaseKeyHeap` — the textbook indexed heap of the "1st Cut"
  rung (every production queue is :class:`~repro.utils.pqueue.BinaryHeap`);
* :class:`ReferenceINE` — INE on each of the four Figure 7 rungs:
  ``first_cut`` (decrease-key heap, dict distances, set settled,
  per-vertex adjacency objects), ``pqueue`` (+ no-decrease-key heap),
  ``settled`` (+ byte-array settled container) and ``graph`` (+ flat CSR
  arrays; the paper's final rung);
* :class:`ReferenceRoadKNN` — ROAD's expansion (Algorithms 5 and 6) one
  settle at a time, consulting the Route Overlay and Association
  Directory per vertex, the loop :class:`~repro.knn.road_knn.RoadKNN`'s
  overlay graph is checked against;
* :func:`upward_search`, :func:`ch_distance` — the bidirectional
  dict-and-heap search over a contraction hierarchy's upward graph
  (optionally settling but not expanding a vertex set), the loop
  :meth:`ContractionHierarchy.distance
  <repro.pathfinding.ch.ContractionHierarchy.distance>`'s one C sweep is
  checked against;
* :func:`tnr_distance` — TNR's access-node table loop plus the
  transit-pruned bidirectional search, against which the stored search
  spaces of :class:`~repro.pathfinding.tnr.TransitNodeRouting` are
  checked;
* :func:`hub_label_distance` — a hub-label query one shared hub at a
  time, against which :meth:`HubLabels.distances
  <repro.pathfinding.hub_labels.HubLabels.distances>`' gather is checked;
* :class:`ReferenceIER` — IER verifying one Euclidean candidate per
  ``oracle.distance`` call, the loop :class:`~repro.knn.ier.IER`'s
  batched rounds replay;
* :class:`ReferenceSILC` — SILC's refinement step (``first_hop``,
  ``path_next``, ``interval_from``, ``refine``) on numpy arrays and
  numpy scalars, against which :class:`~repro.index.silc.SILCIndex`'s
  list-mirror step is checked.

They return the same answers and record the same ``sssp_settled`` /
``expand_settled`` / ``expand_bypassed`` / ``bidir_settled`` counters as
the production code, which is what ``tests/test_kernels.py`` asserts.

Who may import this module: the tests (``tests/test_kernels.py`` for
the equality guards, ``tests/test_oracles.py`` for the pruned CH
search), ``fig07_ine_ablation``, and the registry entry of the
auxiliary method ``ine-graph`` — the engine's terminal degradation
rung, which must not share a code path with the kernels it stands in
for.  Nothing under ``repro.knn``, ``repro.index``,
``repro.pathfinding``, ``repro.kernels`` or ``repro.server`` does.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING, Any, Collection, Dict, Iterable, List, Optional, Sequence,
    Set, Tuple,
)

import numpy as np

from repro.graph.graph import Graph
from repro.index.road import AssociationDirectory, RoadIndex
from repro.index.silc import SILCIndex
from repro.knn.base import KNNAlgorithm, KNNResult
from repro.knn.ier import IER
from repro.utils.bitset import BitArray
from repro.utils.counters import Counters, NULL_COUNTERS
from repro.utils.pqueue import BinaryHeap

if TYPE_CHECKING:
    from repro.pathfinding.ch import ContractionHierarchy
    from repro.pathfinding.hub_labels import HubLabels
    from repro.pathfinding.tnr import TransitNodeRouting

INF = float("inf")

VARIANTS = ("first_cut", "pqueue", "settled", "graph")


def dijkstra_distance(
    graph: Graph,
    source: int,
    target: int,
    counters: Counters = NULL_COUNTERS,
) -> float:
    """Point-to-point network distance: the single-target loop."""
    return dijkstra_to_targets(graph, source, [target], counters)[int(target)]


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
    n = graph.num_vertices
    dist = np.full(n, INF)
    settled = np.zeros(n, dtype=bool)
    heap = BinaryHeap()
    dist[source] = 0.0
    heap.push(0.0, source)
    vertex_start = graph.vertex_start
    edge_target = graph.edge_target
    edge_weight = graph.edge_weight
    while heap:
        d, u = heap.pop()
        if settled[u]:
            continue
        if d > cutoff:
            break
        settled[u] = True
        counters.add("sssp_settled")
        for i in range(vertex_start[u], vertex_start[u + 1]):
            v = int(edge_target[i])
            nd = d + edge_weight[i]
            if nd < dist[v]:
                dist[v] = nd
                heap.push(nd, v)
    return dist


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
    n = graph.num_vertices
    dist = np.full(n, INF)
    settled = np.zeros(n, dtype=bool)
    heap = BinaryHeap()
    dist[source] = 0.0
    heap.push(0.0, source)
    vertex_start = graph.vertex_start
    edge_target = graph.edge_target
    edge_weight = graph.edge_weight
    while heap and remaining:
        d, u = heap.pop()
        if settled[u]:
            continue
        settled[u] = True
        counters.add("sssp_settled")
        if u in remaining:
            out[u] = d
            remaining.discard(u)
            if not remaining:
                break
        for i in range(vertex_start[u], vertex_start[u + 1]):
            v = int(edge_target[i])
            nd = d + edge_weight[i]
            if nd < dist[v]:
                dist[v] = nd
                heap.push(nd, v)
    for t in remaining:
        out[t] = INF
    return out


def dijkstra_restricted(
    graph: Graph,
    source: int,
    allowed: Sequence[int],
) -> Dict[int, float]:
    """SSSP restricted to the subgraph induced by ``allowed`` vertices.

    The oracle for within-leaf G-tree distances and within-Rnet ROAD
    shortcuts, where paths must not leave the region.
    """
    allowed_set = allowed if isinstance(allowed, (set, frozenset)) else set(
        int(v) for v in allowed
    )
    if source not in allowed_set:
        raise ValueError("source must be inside the allowed region")
    dist: Dict[int, float] = {source: 0.0}
    settled = set()
    heap = BinaryHeap()
    heap.push(0.0, source)
    vertex_start = graph.vertex_start
    edge_target = graph.edge_target
    edge_weight = graph.edge_weight
    while heap:
        d, u = heap.pop()
        if u in settled:
            continue
        settled.add(u)
        for i in range(vertex_start[u], vertex_start[u + 1]):
            v = int(edge_target[i])
            if v not in allowed_set:
                continue
            nd = d + edge_weight[i]
            if nd < dist.get(v, INF):
                dist[v] = nd
                heap.push(nd, v)
    return dist


def upward_search(
    ch: "ContractionHierarchy",
    source: int,
    counters: Counters = NULL_COUNTERS,
    prune_at: Optional[Collection[int]] = None,
) -> Dict[int, float]:
    """Dijkstra over ``ch``'s upward graph to exhaustion: every settled
    vertex and its distance.

    Vertices in ``prune_at`` other than ``source`` are settled but not
    expanded.
    """
    indptr, indices, data = ch.up.indptr, ch.up.indices, ch.up.data
    dist: Dict[int, float] = {source: 0.0}
    settled: Set[int] = set()
    heap = BinaryHeap()
    heap.push(0.0, source)
    while heap:
        d, u = heap.pop()
        if u in settled:
            continue
        settled.add(u)
        counters.add("bidir_settled")
        if prune_at is not None and u in prune_at and u != source:
            continue
        lo, hi = indptr[u], indptr[u + 1]
        for v, w in zip(indices[lo:hi].tolist(), data[lo:hi].tolist()):
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                heap.push(nd, v)
    return {u: dist[u] for u in settled}


def ch_distance(
    ch: "ContractionHierarchy",
    source: int,
    target: int,
    counters: Counters = NULL_COUNTERS,
    prune_at: Optional[Collection[int]] = None,
) -> float:
    """Bidirectional upward search: the best meeting vertex of the two
    searches (both pruned at ``prune_at`` when given)."""
    if source == target:
        return 0.0
    fwd = upward_search(ch, source, counters, prune_at)
    bwd = upward_search(ch, target, counters, prune_at)
    best = INF
    small, large = (fwd, bwd) if len(fwd) <= len(bwd) else (bwd, fwd)
    for v, d1 in small.items():
        d2 = large.get(v)
        if d2 is not None and d1 + d2 < best:
            best = d1 + d2
    return best


def tnr_distance(
    tnr: "TransitNodeRouting",
    source: int,
    target: int,
    counters: Counters = NULL_COUNTERS,
) -> float:
    """TNR's query one access-node pair at a time: the best path through
    the transit table, or the transit-pruned bidirectional search's."""
    if source == target:
        return 0.0
    best = INF
    nodes_t, dists_t = tnr.access_nodes(target)
    for a, da in zip(*tnr.access_nodes(source)):
        row = tnr.table[a]
        for b, db in zip(nodes_t, dists_t):
            total = da + row[b] + db
            if total < best:
                best = total
    counters.add("table_lookups")
    local = ch_distance(tnr.ch, source, target, prune_at=set(tnr.transit_nodes))
    if local < best:
        best = local
    return float(best)


def hub_label_distance(
    labels: "HubLabels", source: int, target: int
) -> float:
    """The minimum of ``d(source, h) + d(h, target)`` over the hubs the
    two labels share, one hub at a time."""
    if source == target:
        return 0.0
    via = dict(zip(*(a.tolist() for a in labels.label(source))))
    best = INF
    for hub, d_t in zip(*(a.tolist() for a in labels.label(target))):
        d_s = via.get(hub)
        if d_s is not None and d_s + d_t < best:
            best = d_s + d_t
    return best


class DecreaseKeyHeap:
    """Indexed binary min-heap supporting decrease-key, no duplicates.

    This is the "first cut" queue from Figure 7: every vertex appears at
    most once and :meth:`push` updates the key in place when the vertex is
    already queued.  The position index makes each operation slower than
    :class:`BinaryHeap` — which is exactly the effect the ablation shows.
    """

    def __init__(self) -> None:
        self._keys: List[float] = []
        self._items: List[Any] = []
        self._pos: dict = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __contains__(self, item: Any) -> bool:
        return item in self._pos

    def key_of(self, item: Any) -> Optional[float]:
        i = self._pos.get(item)
        return None if i is None else self._keys[i]

    def push(self, key: float, item: Any) -> bool:
        """Insert ``item`` or decrease its key.

        Returns True if the heap changed (new item, or smaller key).
        """
        i = self._pos.get(item)
        if i is None:
            self._keys.append(key)
            self._items.append(item)
            self._pos[item] = len(self._keys) - 1
            self._sift_up(len(self._keys) - 1)
            return True
        if key < self._keys[i]:
            self._keys[i] = key
            self._sift_up(i)
            return True
        return False

    def pop(self) -> Tuple[float, Any]:
        key, item = self._keys[0], self._items[0]
        del self._pos[item]
        last_key, last_item = self._keys.pop(), self._items.pop()
        if self._keys:
            self._keys[0], self._items[0] = last_key, last_item
            self._pos[last_item] = 0
            self._sift_down(0)
        return key, item

    def peek_key(self) -> float:
        return self._keys[0] if self._keys else float("inf")

    def _sift_up(self, i: int) -> None:
        keys, items, pos = self._keys, self._items, self._pos
        key, item = keys[i], items[i]
        while i > 0:
            parent = (i - 1) >> 1
            if keys[parent] <= key:
                break
            keys[i], items[i] = keys[parent], items[parent]
            pos[items[i]] = i
            i = parent
        keys[i], items[i] = key, item
        pos[item] = i

    def _sift_down(self, i: int) -> None:
        keys, items, pos = self._keys, self._items, self._pos
        n = len(keys)
        key, item = keys[i], items[i]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            if child + 1 < n and keys[child + 1] < keys[child]:
                child += 1
            if keys[child] >= key:
                break
            keys[i], items[i] = keys[child], items[child]
            pos[items[i]] = i
            i = child
        keys[i], items[i] = key, item
        pos[item] = i


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


class ReferenceRoadKNN(KNNAlgorithm):
    """ROAD kNN one settle at a time over flat lists (Algorithms 5, 6).

    A settled vertex bypasses the shallowest object-free Rnet it borders
    (that Rnet's shortcuts plus its raw edges leaving it), else relaxes
    every raw edge; visited vertices are skipped (Appendix A.3).  The heap
    pops ``(distance, vertex)``, so ties at the k-th distance go by id as
    in the kernel; like :class:`ReferenceINE` it drains the heap when it
    cannot find k objects.  Lists snapshot the index at construction.
    """

    name = "road"

    def __init__(self, road: RoadIndex, objects: Sequence[int]) -> None:
        self.road, self.ad = road, AssociationDirectory(road, objects)
        graph = road.graph
        self._vs, self._et, self._ew, self._leaf_index = (a.tolist() for a in (
            graph.vertex_start, graph.edge_target, graph.edge_weight, road.leaf_index_of
        ))
        # Per Rnet, per border: its finite shortcuts as (border, w) pairs.
        self._shortcuts = [[
            [(b, w) for j, (b, w) in enumerate(zip(nd.borders.tolist(), row))
             if j != i and w < INF]
            for i, row in enumerate(nd.shortcut_matrix.tolist())
        ] for nd in road.rnets]

    def update_objects(
        self, added: Sequence[int], removed: Sequence[int]
    ) -> None:
        for o in removed:
            self.ad.remove_object(int(o))
        for o in added:
            self.ad.add_object(int(o))

    def knn(
        self, query: int, k: int, counters: Counters = NULL_COUNTERS
    ) -> KNNResult:
        road, ad = self.road, self.ad
        dist = [INF] * len(self._leaf_index)
        visited = bytearray(len(dist))
        dist[query] = 0.0
        heap = [(0.0, query)]
        results: List[Tuple[float, int]] = []
        vs, et, ew, leaf_index = self._vs, self._et, self._ew, self._leaf_index
        count = counters.enabled
        while heap:
            d, u = heappop(heap)
            if visited[u]:
                continue
            visited[u] = 1
            if count:
                counters.add("expand_settled")
            if ad.is_object(u):
                results.append((d, u))
                if len(results) == k:
                    break
            free = [r for r in road.route_overlay[u] if not ad.rnet_has_object(r)]
            edges, lo, hi = [], 0, 0  # [0, 0): no raw edge is interior
            if free:
                node = road.rnets[free[0]]
                if count:
                    counters.add("expand_bypassed", node.interior_size)
                edges = self._shortcuts[node.id][node.border_pos[u]]
                lo, hi = node.leaf_lo, node.leaf_hi
            edges = edges + [
                (et[i], ew[i]) for i in range(vs[u], vs[u + 1])
                if not lo <= leaf_index[et[i]] < hi
            ]
            for v, w in edges:
                nd = d + w
                if not visited[v] and nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        return self._finalise(results, k)


class ReferenceIER(IER):
    """IER verifying one Euclidean candidate per ``oracle.distance``
    call, stopping at the first candidate whose lower bound cannot beat
    the k-th distance (Section 3.2 as written)."""

    def knn(
        self, query: int, k: int, counters: Counters = NULL_COUNTERS
    ) -> KNNResult:
        if k <= 0:
            return []
        graph = self.graph
        speed = graph.max_speed()
        cursor = self.rtree.nearest_cursor(float(graph.x[query]), float(graph.y[query]))
        candidates = BinaryHeap()
        d_k = INF
        while True:
            nxt = cursor.next()
            if nxt is None:
                break
            de, obj = nxt
            lower_bound = de / speed
            if len(candidates) >= k and lower_bound >= d_k:
                break
            d = self.oracle.distance(query, obj)
            counters.add("verify_network_computations")
            if len(candidates) < k:
                candidates.push(-d, obj)
                if len(candidates) == k:
                    d_k = -candidates.peek_key()
            elif d < d_k:
                candidates.pop()
                candidates.push(-d, obj)
                d_k = -candidates.peek_key()
                counters.add("euclid_candidate_replacements")
            else:
                counters.add("verify_false_hits")
        results: List[Tuple[float, int]] = []
        while candidates:
            neg_d, obj = candidates.pop()
            results.append((-neg_d, obj))
        return self._finalise(results, k)


class ReferenceSILC(SILCIndex):
    """A :class:`SILCIndex` whose refinement step (``refine`` over these
    ``path_next`` / ``first_hop`` / ``interval_from``) reads the graph and
    the block arrays element by element, as numpy scalars; :meth:`of`
    shares an index's blocks without copying them."""

    @classmethod
    def of(cls, silc: SILCIndex) -> "ReferenceSILC":
        ref = cls.__new__(cls)
        ref.__dict__.update(silc.__dict__)
        return ref

    def first_hop(self, source: int, target: int) -> int:
        if source == target:
            return source
        blocks = self._sources[source]
        if blocks.exceptions is not None:
            hit = blocks.exceptions.get(int(target))
            if hit is not None:
                return hit
        pos = int(self._pos_of[target])
        b = int(np.searchsorted(blocks.starts, pos, side="right")) - 1
        return int(blocks.colors[b])

    def path_next(
        self, current: int, previous: int, target: int, use_chains: bool
    ) -> Tuple[int, float]:
        graph = self.graph
        if use_chains and previous >= 0 and self._degree[current] <= 2:
            targets, weights = graph.neighbor_slice(current)
            for t, w in zip(targets, weights):
                if int(t) != previous:
                    return int(t), float(w)
            return previous, float(weights[0])
        nxt = self.first_hop(current, target)
        w = graph.edge_weight_between(current, nxt)
        if w is None:
            raise RuntimeError(
                f"SILC first hop {nxt} is not adjacent to {current}"
            )
        return nxt, w

    def interval_from(self, vertex: int, target: int) -> Tuple[float, float]:
        if vertex == target:
            return 0.0, 0.0
        blocks = self._sources[vertex]
        pos = int(self._pos_of[target])
        b = int(np.searchsorted(blocks.starts, pos, side="right")) - 1
        de = float(
            np.hypot(
                self.graph.x[vertex] - self.graph.x[target],
                self.graph.y[vertex] - self.graph.y[target],
            )
        )
        with np.errstate(invalid="ignore"):
            lb = np.fmax(blocks.lam_minus[b] * de, blocks.dn_min[b])
            ub = np.fmin(blocks.lam_plus[b] * de, blocks.dn_max[b])
        return float(lb), float(ub)
