"""Transit Node Routing over Contraction Hierarchies.

The paper combines IER with TNR (Bast et al., WEA 2007); TNR answers
long-range queries from a small all-pairs *distance table* between
transit nodes, falling back to CH for local queries — which is why
Figure 4 shows TNR and CH coincide at high densities.

This implementation follows the CH-based TNR construction (Arz, Luxen
and Sanders 2013):

* transit nodes = the ``num_transit`` highest-ranked CH vertices;
* per-vertex *search space*: the vertices an upward CH search from it
  settles when transit nodes are settled but not expanded (a transit
  source still expands its own edges), with their distances;
* per-vertex *access nodes*: the transit nodes in that search space,
  dominated entries removed via the table;
* table: distances between all transit-node pairs;
* query: the minimum over access-node pairs through the table, combined
  with the best meeting vertex of the two search spaces, which exactly
  covers the paths avoiding all transit nodes.  The combination is exact
  for every query.

Every search space is computed at build time in batched C Dijkstra
sweeps and stored flat, so a query is array arithmetic;
:func:`repro.reference.tnr_distance` is the table loop plus
transit-pruned bidirectional search it is checked against.  Real TNR
skips the local part for far-apart pairs via a locality filter; with
rank-selected transit nodes that guarantee does not hold, so every query
takes the (cheap) meeting-vertex minimum instead.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.graph.graph import Graph
from repro.pathfinding.bulk import bulk_sssp
from repro.pathfinding.ch import ContractionHierarchy
from repro.utils.arrays import ragged_min
from repro.utils.counters import BUILD_COUNTERS, Counters, NULL_COUNTERS

INF = float("inf")


class TransitNodeRouting:
    """TNR index layered on a :class:`ContractionHierarchy`.

    The all-pairs transit table is one multi-source :func:`bulk_sssp`
    sweep rather than ``t^2 / 2`` individual CH queries — the same exact
    distances at a fraction of the build time.
    """

    name = "tnr"

    def __init__(
        self,
        graph: Graph,
        ch: Optional[ContractionHierarchy] = None,
        num_transit: Optional[int] = None,
    ) -> None:
        self.graph = graph
        BUILD_COUNTERS.add("build:tnr")
        start = time.perf_counter()
        self.ch = ch if ch is not None else ContractionHierarchy(graph)
        if num_transit is None:
            num_transit = max(8, min(256, graph.num_vertices // 64))
        num_transit = min(num_transit, graph.num_vertices)
        self._build(num_transit)
        self._build_time = time.perf_counter() - start

    def _build(self, num_transit: int) -> None:
        order = np.argsort(-self.ch.rank)
        self.transit_nodes = [int(v) for v in order[:num_transit]]

        # All-pairs transit table: one bulk multi-source sweep.
        tn = np.asarray(self.transit_nodes, dtype=np.int64)
        table = bulk_sssp(self.graph, tn)[:, tn] if len(tn) else np.zeros((0, 0))
        np.fill_diagonal(table, 0.0)
        self.table = table
        self._search_spaces(tn)

    def _search_spaces(self, tn: np.ndarray) -> None:
        """Every vertex's transit-pruned search space and access nodes.

        The pruning is a graph transform — a transit node's outgoing
        upward edges are deleted, which is exactly "settle but do not
        expand" — so every non-transit vertex's search runs inside one
        batched C Dijkstra sweep.  A transit source expands its own
        edges, so each gets its own sweep over the pruned graph with its
        row restored (merging its neighbours' rows would add the same
        weights in a different order).
        """
        n = self.graph.num_vertices
        up = self.ch.up
        is_transit = np.zeros(n, dtype=bool)
        is_transit[tn] = True
        row_of = np.repeat(np.arange(n), np.diff(up.indptr))

        def pruned(expand: int = -1) -> csr_matrix:
            keep = ~is_transit[row_of] | (row_of == expand)
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.bincount(row_of[keep], minlength=n), out=indptr[1:])
            return csr_matrix(
                (up.data[keep], up.indices[keep], indptr), shape=(n, n)
            )

        cone: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        access: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        pruned_up = pruned()
        sources = np.flatnonzero(~is_transit)
        # scipy returns a dense (batch, n) float64 block per sweep; cap
        # it at ~64 MB so large graphs don't pay a multi-gigabyte
        # allocation.
        batch = max(1, min(1024, 8_000_000 // max(n, 1)))
        for lo in range(0, len(sources), batch):
            seg = sources[lo : lo + batch]
            dist = _csgraph_dijkstra(pruned_up, directed=True, indices=seg)
            rows, cols = np.nonzero(np.isfinite(dist))
            cone.append((seg[rows], cols, dist[rows, cols]))
            td = dist[:, tn]
            hr, hc = np.nonzero(np.isfinite(td))
            vals = td[hr, hc]
            bounds = np.searchsorted(hr, np.arange(len(seg) + 1)).tolist()
            keep = np.ones(len(hr), dtype=bool)
            for r in range(len(seg)):
                a, b = bounds[r], bounds[r + 1]
                if b - a > 1:
                    keep[a:b] = self._undominated(hc[a:b], vals[a:b])
            access.append((seg[hr[keep]], hc[keep], vals[keep]))
        for i, t in enumerate(tn.tolist()):
            dist = _csgraph_dijkstra(pruned(t), directed=True, indices=t)
            cols = np.flatnonzero(np.isfinite(dist))
            cone.append((np.full(len(cols), t), cols, dist[cols]))
            access.append((np.asarray([t]), np.asarray([i]), np.zeros(1)))

        def flat(parts):
            """(owner, key, value) parts as flat (key, value, offsets)
            grouped by owner, each owner's entries in their order."""
            owner, key, value = (np.concatenate(p) for p in zip(*parts))
            order = np.argsort(owner, kind="stable")
            off = np.searchsorted(owner[order], np.arange(n + 1))
            return key[order].astype(np.int32), value[order].astype(np.float64), off

        self.cone_vertex, self.cone_dist, self.cone_off = flat(cone)
        self.access_node, self.access_dist, self.access_off = flat(access)

    def _undominated(self, aidx: np.ndarray, da: np.ndarray) -> np.ndarray:
        """Mask dropping access node a when another a' proves
        d(v,a') + T[a',a] <= d(v,a) (ties keep the earlier entry)."""
        m = len(aidx)
        through = da[:, None] + self.table[np.ix_(aidx, aidx)]
        dominates = through < da[None, :]
        order = np.arange(m)
        dominates |= (through == da[None, :]) & (
            order[:, None] < order[None, :]
        )
        np.fill_diagonal(dominates, False)
        return ~dominates.any(axis=0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def access_nodes(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """Vertex ``v``'s (transit-table indices, distances)."""
        lo, hi = self.access_off[v], self.access_off[v + 1]
        return self.access_node[lo:hi], self.access_dist[lo:hi]

    def search_space(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """Vertex ``v``'s transit-pruned upward search space (its
        *cone*, stored flat as ``cone_*``): (settled vertices ascending,
        their distances)."""
        lo, hi = self.cone_off[v], self.cone_off[v + 1]
        return self.cone_vertex[lo:hi], self.cone_dist[lo:hi]

    def distances(
        self,
        source: int,
        targets: Sequence[int],
        counters: Counters = NULL_COUNTERS,
    ) -> np.ndarray:
        """Exact network distances from ``source`` to each of ``targets``.

        The table covers every path through a transit node; the best
        meeting vertex of the two search spaces covers every path
        avoiding them.  Both terms run over all targets' rows at once:
        the table term against the concatenated access nodes, the meet
        term against the concatenated search spaces looked up in the
        source's search space scattered into a length-V array.
        """
        targets = np.asarray(targets, dtype=np.int64)
        out = np.zeros(len(targets))
        others = targets != source
        if not others.any():
            return out
        rest = targets[others]
        counters.add("table_lookups", len(rest))
        a_s, d_s = self.access_nodes(source)
        table = self.table[a_s]
        best = ragged_min(
            self.access_off, rest,
            lambda at: (
                d_s[:, None] + table[:, self.access_node[at]]
                + self.access_dist[at][None, :]
            ).min(axis=0, initial=INF),
        )
        v_s, c_s = self.search_space(source)
        via = np.full(self.graph.num_vertices, INF)
        via[v_s] = c_s
        local = ragged_min(
            self.cone_off, rest, lambda at: via[self.cone_vertex[at]] + self.cone_dist[at]
        )
        out[others] = np.minimum(best, local)
        return out

    def distance(
        self, source: int, target: int, counters: Counters = NULL_COUNTERS
    ) -> float:
        """Exact network distance (:meth:`distances` for one target)."""
        return float(self.distances(source, (target,), counters)[0])

    # ------------------------------------------------------------------
    # Oracle protocol
    # ------------------------------------------------------------------
    def build_time(self) -> float:
        return self._build_time

    def size_bytes(self) -> int:
        entries = len(self.access_node) + len(self.cone_vertex)
        return int(self.table.nbytes) + entries * 12 + self.ch.size_bytes()

    def average_access_nodes(self) -> float:
        return float(np.mean(np.diff(self.access_off)))

    # ------------------------------------------------------------------
    # Serialization (persistent index store)
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Transit table, access nodes and search spaces as flat arrays.

        The underlying CH is *not* embedded — it is its own store
        artifact; ``from_arrays`` receives it as a dependency.
        """
        return {
            "transit_nodes": np.asarray(self.transit_nodes, dtype=np.int64),
            "table": self.table,
            "access_node": self.access_node,
            "access_dist": self.access_dist,
            "access_off": self.access_off,
            "cone_vertex": self.cone_vertex,
            "cone_dist": self.cone_dist,
            "cone_off": self.cone_off,
            "build_time": np.asarray(self._build_time),
        }

    @classmethod
    def from_arrays(
        cls,
        graph: Graph,
        arrays: Dict[str, np.ndarray],
        ch: ContractionHierarchy,
    ) -> "TransitNodeRouting":
        """Rehydrate over an existing (built or loaded) CH."""
        self = cls.__new__(cls)
        self.graph = graph
        self.ch = ch
        self._build_time = float(arrays["build_time"])
        self.transit_nodes = [int(v) for v in arrays["transit_nodes"]]
        self.table = np.asarray(arrays["table"], dtype=np.float64)
        for name in (
            "access_node", "access_dist", "access_off",
            "cone_vertex", "cone_dist", "cone_off",
        ):
            setattr(self, name, arrays[name])
        return self
