"""CSR road-network graph.

The paper (Section 6.2, choice 3) replaces per-vertex adjacency-list
objects with two flat arrays: ``edges`` holding every adjacency list
consecutively and ``vertices`` holding the starting offset of each list.
``Graph`` is exactly that structure, backed by numpy arrays, with vertex
coordinates for Euclidean bounds and both travel-distance and travel-time
edge weights (the paper evaluates both, Sections 7.2-7.5).

Graphs are undirected and connected: every edge is stored in both
directions and the builder verifies connectivity (the paper's problem
definition assumes a connected undirected graph).
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


class Graph:
    """Undirected road network in CSR form.

    Topology is fixed after construction; edge weights may drift via
    :meth:`apply_weight_deltas` (time-varying travel times), which keeps
    the cached derived structures consistent.

    Attributes
    ----------
    vertex_start : ``int64[V+1]``
        ``vertex_start[u]..vertex_start[u+1]`` indexes u's adjacency list.
    edge_target : ``int32[2E]``
        Flattened adjacency lists (each undirected edge appears twice).
    edge_weight : ``float64[2E]``
        Active edge weights (travel distance by default).
    x, y : ``float64[V]``
        Planar vertex coordinates (used for Euclidean lower bounds).
    """

    def __init__(
        self,
        vertex_start: np.ndarray,
        edge_target: np.ndarray,
        edge_weight: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        name: str = "graph",
        weight_kind: str = "distance",
    ) -> None:
        self.vertex_start = vertex_start
        self.edge_target = edge_target
        self.edge_weight = edge_weight
        self.x = x
        self.y = y
        self.name = name
        self.weight_kind = weight_kind
        self._csr: Optional[csr_matrix] = None
        self._max_speed: Optional[float] = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.vertex_start) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.edge_target) // 2

    def degree(self, u: int) -> int:
        return int(self.vertex_start[u + 1] - self.vertex_start[u])

    def neighbors(self, u: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(v, w(u, v))`` for every neighbor v of u."""
        start, end = self.vertex_start[u], self.vertex_start[u + 1]
        targets = self.edge_target
        weights = self.edge_weight
        for i in range(start, end):
            yield int(targets[i]), float(weights[i])

    def neighbor_slice(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """Adjacency of u as ``(targets, weights)`` array views."""
        start, end = self.vertex_start[u], self.vertex_start[u + 1]
        return self.edge_target[start:end], self.edge_weight[start:end]

    def edge_weight_between(self, u: int, v: int) -> Optional[float]:
        """Weight of edge (u, v), or None when absent."""
        targets, weights = self.neighbor_slice(u)
        hits = np.nonzero(targets == v)[0]
        if len(hits) == 0:
            return None
        return float(weights[hits[0]])

    def euclidean(self, u: int, v: int) -> float:
        """Euclidean distance between the coordinates of u and v."""
        return math.hypot(self.x[u] - self.x[v], self.y[u] - self.y[v])

    def euclidean_to_point(self, u: int, px: float, py: float) -> float:
        return math.hypot(self.x[u] - px, self.y[u] - py)

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def to_csr_matrix(self) -> csr_matrix:
        """Scipy CSR adjacency matrix (cached) for bulk preprocessing."""
        if self._csr is None:
            n = self.num_vertices
            indptr = self.vertex_start.astype(np.int64)
            self._csr = csr_matrix(
                (self.edge_weight, self.edge_target.astype(np.int64), indptr),
                shape=(n, n),
            )
        return self._csr

    def max_speed(self) -> float:
        """``S = max(euclidean_length / weight)`` over all edges.

        For travel-time weights this is the maximum speed in the network;
        ``euclidean / S`` is then a valid network-distance lower bound
        (paper Section 7.5).  For travel-distance weights where weights
        are >= euclidean lengths this is <= 1.
        """
        if self._max_speed is None:
            n = self.num_vertices
            sources = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self.vertex_start)
            )
            targets = self.edge_target
            dx = self.x[sources] - self.x[targets]
            dy = self.y[sources] - self.y[targets]
            lengths = np.hypot(dx, dy)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(self.edge_weight > 0, lengths / self.edge_weight, 0.0)
            self._max_speed = float(ratio.max()) if len(ratio) else 1.0
            if self._max_speed <= 0:
                self._max_speed = 1.0
        return self._max_speed

    def euclidean_lower_bound(self, u: int, v: int) -> float:
        """Valid network-distance lower bound for the active weights."""
        return self.euclidean(u, v) / self.max_speed()

    def with_weights(self, edge_weight: np.ndarray, weight_kind: str) -> "Graph":
        """A graph sharing topology and coordinates but different weights."""
        if len(edge_weight) != len(self.edge_target):
            raise ValueError("weight array length must match edge count")
        return Graph(
            self.vertex_start,
            self.edge_target,
            np.asarray(edge_weight, dtype=np.float64),
            self.x,
            self.y,
            name=f"{self.name}:{weight_kind}",
            weight_kind=weight_kind,
        )

    def apply_weight_deltas(
        self, deltas: Sequence
    ) -> List[Tuple[int, int, float, float]]:
        """Mutate edge weights in place from :class:`repro.updates.WeightDelta`s.

        Each delta sets undirected edge ``(u, v)`` to the absolute weight
        ``new_weight``; both directed copies are updated and the cached
        CSR matrix, max-speed bound and fingerprint are invalidated (a
        stale fingerprint would poison store artifacts and server result
        caches).  Returns ``(u, v, old, new)`` for deltas that actually
        changed a weight — replaying an already-applied batch yields an
        empty list, making delta streams idempotent.

        A graph over read-only arrays (:meth:`from_store_mmap`) takes a
        private copy of ``edge_weight`` at its first effective change;
        the mapped store pages are never written to.

        Raises ``KeyError`` for a missing edge and ``ValueError`` for a
        non-positive weight, *before* mutating anything in that delta.
        """
        changed: List[Tuple[int, int, float, float]] = []
        starts = self.vertex_start
        targets = self.edge_target
        weights = self.edge_weight
        dirty = False
        for delta in deltas:
            u, v = int(delta.u), int(delta.v)
            new_w = float(delta.new_weight)
            if not new_w > 0.0:
                raise ValueError(f"edge ({u}, {v}) weight must stay positive")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise KeyError(f"edge ({u}, {v}) references unknown vertex")
            pos_uv = starts[u] + np.nonzero(
                targets[starts[u]:starts[u + 1]] == v
            )[0]
            pos_vu = starts[v] + np.nonzero(
                targets[starts[v]:starts[v + 1]] == u
            )[0]
            if len(pos_uv) == 0 or len(pos_vu) == 0:
                raise KeyError(f"no edge between {u} and {v}")
            old_w = float(weights[pos_uv[0]])
            if old_w == new_w:
                continue
            if not weights.flags.writeable:
                weights = self.edge_weight = np.array(weights)
            weights[pos_uv] = new_w
            weights[pos_vu] = new_w
            changed.append((u, v, old_w, new_w))
            dirty = True
        if dirty:
            self._csr = None
            self._max_speed = None
            self._fingerprint = None
        return changed

    def edge_list(self) -> List[Tuple[int, int, float]]:
        """Undirected edge list with u < v (each edge once)."""
        out = []
        for u in range(self.num_vertices):
            targets, weights = self.neighbor_slice(u)
            for v, w in zip(targets, weights):
                if u < v:
                    out.append((u, int(v), float(w)))
        return out

    def size_bytes(self) -> int:
        """In-memory footprint of the CSR arrays (index-size experiments)."""
        return (
            self.vertex_start.nbytes
            + self.edge_target.nbytes
            + self.edge_weight.nbytes
            + self.x.nbytes
            + self.y.nbytes
        )

    # ------------------------------------------------------------------
    # Serialization (persistent index store)
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The CSR arrays as a flat dict — an ``IndexStore`` artifact payload."""
        return {
            "vertex_start": self.vertex_start,
            "edge_target": self.edge_target,
            "edge_weight": self.edge_weight,
            "x": self.x,
            "y": self.y,
            "name": np.asarray(self.name),
            "weight_kind": np.asarray(self.weight_kind),
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "Graph":
        """Rebuild a graph from :meth:`to_arrays` output."""
        return cls(
            np.asarray(arrays["vertex_start"], dtype=np.int64),
            np.asarray(arrays["edge_target"], dtype=np.int32),
            np.asarray(arrays["edge_weight"], dtype=np.float64),
            np.asarray(arrays["x"], dtype=np.float64),
            np.asarray(arrays["y"], dtype=np.float64),
            name=str(arrays.get("name", "graph")),
            weight_kind=str(arrays.get("weight_kind", "distance")),
        )

    #: (array name, target dtype) pairs :meth:`from_store_mmap` verifies
    #: stay zero-copy.
    _CSR_FIELDS = (
        ("vertex_start", np.int64),
        ("edge_target", np.int32),
        ("edge_weight", np.float64),
        ("x", np.float64),
        ("y", np.float64),
    )

    @classmethod
    def from_store_mmap(cls, store, key: str) -> "Graph":
        """Construct a graph over a store artifact **without copying**.

        For a ``flat`` artifact the CSR arrays are read-only memory maps:
        construction touches no data pages, the OS faults them in on
        first access, and every process mapping the same store shares
        them through the page cache.  For a legacy ``npz`` artifact the
        arrays materialise (that is the transparent-fallback contract) —
        still one copy, never two.

        A no-copy guard verifies each array the graph holds shares
        memory with the loaded view; a silent copy (e.g. a dtype drift
        in a foreign artifact) raises ``StoreError`` rather than quietly
        doubling a continental-scale footprint.  The mapped arrays are
        read-only; ``apply_weight_deltas`` replaces ``edge_weight`` with
        a private copy at its first change and leaves the other four
        arrays mapped, so live updates never write to the store's pages.
        """
        from repro.store.store import StoreError

        arrays = store.get("graph", key)
        graph = cls.from_arrays(arrays)
        if store.info("graph", key).mapped:
            for name, _dtype in cls._CSR_FIELDS:
                if not np.shares_memory(getattr(graph, name), arrays[name]):
                    raise StoreError(
                        f"from_store_mmap copied array {name!r} (dtype "
                        f"{arrays[name].dtype} in artifact); the flat "
                        "artifact was written with a foreign layout"
                    )
        return graph

    #: Rows hashed per :meth:`fingerprint` chunk — bounds the transient
    #: heap cost of hashing to ~32 MB regardless of graph size.
    _FINGERPRINT_CHUNK = 4 << 20

    def fingerprint(self) -> str:
        """Content hash of topology, weights and coordinates (cached).

        The persistent index store keys every artifact by this digest, so
        an index saved for one network can never be served for another —
        including the same topology under different edge weights (the
        travel-time variants).

        Hashing walks each array in bounded chunks: ``tobytes()`` on a
        whole continental-scale array would allocate a full heap copy
        (and fault in every page of a memory-mapped graph at once).  The
        digest is byte-identical to whole-array hashing for the
        C-contiguous 1-D arrays a graph holds.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            step = self._FINGERPRINT_CHUNK
            for arr in (
                self.vertex_start,
                self.edge_target,
                self.edge_weight,
                self.x,
                self.y,
            ):
                flat = arr if arr.ndim == 1 else np.ascontiguousarray(arr)
                for i in range(0, len(flat), step):
                    h.update(np.ascontiguousarray(flat[i : i + step]).tobytes())
            h.update(self.weight_kind.encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, weights={self.weight_kind})"
        )


class GraphBuilder:
    """Incremental builder producing a validated :class:`Graph`.

    >>> b = GraphBuilder()
    >>> a = b.add_vertex(0.0, 0.0); c = b.add_vertex(1.0, 0.0)
    >>> b.add_edge(a, c, 1.0)
    >>> g = b.build()
    >>> g.num_vertices, g.num_edges
    (2, 1)
    """

    def __init__(self) -> None:
        self._xs: List[float] = []
        self._ys: List[float] = []
        self._edges: List[Tuple[int, int, float]] = []

    def add_vertex(self, x: float, y: float) -> int:
        self._xs.append(float(x))
        self._ys.append(float(y))
        return len(self._xs) - 1

    def add_edge(self, u: int, v: int, weight: float) -> None:
        if u == v:
            raise ValueError("self loops are not allowed in road networks")
        if weight <= 0:
            raise ValueError("edge weights must be positive")
        n = len(self._xs)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references unknown vertex")
        self._edges.append((u, v, float(weight)))

    @property
    def num_vertices(self) -> int:
        return len(self._xs)

    def build(
        self,
        name: str = "graph",
        weight_kind: str = "distance",
        require_connected: bool = True,
    ) -> Graph:
        n = len(self._xs)
        if n == 0:
            raise ValueError("graph must have at least one vertex")
        # Deduplicate parallel edges keeping the smallest weight, then
        # expand to both directions and sort into CSR order.
        best: dict = {}
        for u, v, w in self._edges:
            key = (u, v) if u < v else (v, u)
            prev = best.get(key)
            if prev is None or w < prev:
                best[key] = w
        m = len(best)
        src = np.empty(2 * m, dtype=np.int64)
        dst = np.empty(2 * m, dtype=np.int32)
        wgt = np.empty(2 * m, dtype=np.float64)
        for i, ((u, v), w) in enumerate(best.items()):
            src[2 * i], dst[2 * i], wgt[2 * i] = u, v, w
            src[2 * i + 1], dst[2 * i + 1], wgt[2 * i + 1] = v, u, w
        order = np.lexsort((dst, src))
        src, dst, wgt = src[order], dst[order], wgt[order]
        vertex_start = np.zeros(n + 1, dtype=np.int64)
        np.add.at(vertex_start, src + 1, 1)
        np.cumsum(vertex_start, out=vertex_start)
        graph = Graph(
            vertex_start,
            dst,
            wgt,
            np.asarray(self._xs, dtype=np.float64),
            np.asarray(self._ys, dtype=np.float64),
            name=name,
            weight_kind=weight_kind,
        )
        if require_connected and m > 0:
            n_components, _ = connected_components(
                graph.to_csr_matrix(), directed=False
            )
            if n_components != 1:
                raise ValueError(
                    f"graph has {n_components} connected components; road "
                    "networks must be connected (pass require_connected="
                    "False to skip this check)"
                )
        return graph


def from_edge_list(
    coordinates: Sequence[Tuple[float, float]],
    edges: Sequence[Tuple[int, int, float]],
    name: str = "graph",
    weight_kind: str = "distance",
    require_connected: bool = True,
) -> Graph:
    """Convenience constructor from coordinate and edge sequences."""
    builder = GraphBuilder()
    for x, y in coordinates:
        builder.add_vertex(x, y)
    for u, v, w in edges:
        builder.add_edge(u, v, w)
    return builder.build(
        name=name, weight_kind=weight_kind, require_connected=require_connected
    )


def largest_connected_component(graph: Graph) -> Graph:
    """Restrict ``graph`` to its largest connected component.

    Used by the DIMACS loader and the generators: real and synthetic data
    can contain small disconnected fragments that the problem definition
    excludes.
    """
    n_components, labels = connected_components(graph.to_csr_matrix(), directed=False)
    if n_components == 1:
        return graph
    largest = np.argmax(np.bincount(labels))
    keep = np.nonzero(labels == largest)[0]
    remap = -np.ones(graph.num_vertices, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    builder = GraphBuilder()
    for old in keep:
        builder.add_vertex(graph.x[old], graph.y[old])
    for u, v, w in graph.edge_list():
        if remap[u] >= 0 and remap[v] >= 0:
            builder.add_edge(int(remap[u]), int(remap[v]), w)
    return builder.build(name=graph.name, weight_kind=graph.weight_kind)
