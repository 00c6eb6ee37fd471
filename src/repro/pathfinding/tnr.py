"""Transit Node Routing over Contraction Hierarchies.

The paper combines IER with TNR (Bast et al., WEA 2007) using a grid of
size 128; TNR answers long-range queries from a small all-pairs *distance
table* between transit nodes, falling back to CH for local queries — which
is why Figure 4 shows TNR and CH coincide at high densities.

This implementation follows the CH-based TNR construction:

* transit nodes = the ``num_transit`` highest-ranked CH vertices;
* per-vertex *access nodes*: transit nodes reached by an upward CH search
  pruned at transit nodes, dominated entries removed via the table;
* table: CH distances between all transit-node pairs;
* query: minimum over access-node pairs through the table, combined with a
  transit-pruned bidirectional CH search that exactly covers paths
  avoiding all transit nodes.  The combination is exact for every query.

A uniform grid provides the paper's *locality filter*: far-apart cells
skip the pruned local search, matching TNR's long-range fast path.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.pathfinding.bulk import bulk_sssp
from repro.pathfinding.ch import ContractionHierarchy
from repro.utils.arrays import concat_ragged, ragged_row
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
        grid_size: int = 32,
        locality_cells: int = 4,
    ) -> None:
        self.graph = graph
        BUILD_COUNTERS.add("build:tnr")
        start = time.perf_counter()
        self.ch = ch if ch is not None else ContractionHierarchy(graph)
        if num_transit is None:
            num_transit = max(8, min(256, graph.num_vertices // 64))
        num_transit = min(num_transit, graph.num_vertices)
        self.grid_size = grid_size
        self.locality_cells = locality_cells
        self._build(num_transit)
        self._build_time = time.perf_counter() - start

    def _build(self, num_transit: int) -> None:
        graph = self.graph
        order = np.argsort(-self.ch.rank)
        self.transit_nodes = [int(v) for v in order[:num_transit]]
        self.transit_set: Set[int] = set(self.transit_nodes)
        transit_index = {v: i for i, v in enumerate(self.transit_nodes)}

        # All-pairs transit table: one bulk multi-source sweep.
        tn = np.asarray(self.transit_nodes, dtype=np.int64)
        table = bulk_sssp(graph, tn)[:, tn] if len(tn) else np.zeros((0, 0))
        np.fill_diagonal(table, 0.0)
        self.table = table

        # Access nodes per vertex (transit-pruned upward search, dominated
        # entries removed).  The pruning is expressed as a graph transform
        # — a transit node's *outgoing* upward edges are deleted, which is
        # exactly "settle but do not expand" — so every per-vertex search
        # runs inside one batched C Dijkstra sweep.
        self.access = self._access_nodes_bulk(transit_index)

        # Locality grid.
        self._gx0, self._gy0 = float(graph.x.min()), float(graph.y.min())
        spanx = float(graph.x.max()) - self._gx0 or 1.0
        spany = float(graph.y.max()) - self._gy0 or 1.0
        self._cell_w = spanx / self.grid_size
        self._cell_h = spany / self.grid_size
        self.cell_x = np.minimum(
            ((graph.x - self._gx0) / self._cell_w).astype(np.int64),
            self.grid_size - 1,
        )
        self.cell_y = np.minimum(
            ((graph.y - self._gy0) / self._cell_h).astype(np.int64),
            self.grid_size - 1,
        )

    def _access_nodes_bulk(
        self, transit_index: Dict[int, int]
    ) -> List[List[Tuple[int, float]]]:
        """All per-vertex access nodes from batched sweeps.

        Reachability in the upward graph with transit out-edges removed
        *is* the explored cone of a per-vertex upward search pruned at
        transit nodes, at identical distances.
        """
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

        n = self.graph.num_vertices
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for u, lst in enumerate(self.ch.up):
            if u in self.transit_set:
                continue
            for v, w in lst:
                rows.append(u)
                cols.append(v)
                data.append(w)
        pruned_up = csr_matrix(
            (np.asarray(data), (np.asarray(rows), np.asarray(cols))),
            shape=(n, n),
        )
        tn = np.asarray(self.transit_nodes, dtype=np.int64)
        access: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        sources = np.asarray(
            [v for v in range(n) if v not in self.transit_set], dtype=np.int64
        )
        # scipy returns a dense (batch, n) float64 block per sweep; cap
        # it at ~64 MB so large graphs don't pay a multi-gigabyte
        # allocation.
        batch = max(1, min(1024, 8_000_000 // max(n, 1)))
        for lo in range(0, len(sources), batch):
            seg = sources[lo : lo + batch]
            dist = _csgraph_dijkstra(pruned_up, directed=True, indices=seg)
            td = dist[:, tn]
            hr, hc = np.nonzero(np.isfinite(td))
            vals = td[hr, hc]
            row_starts = np.searchsorted(hr, np.arange(len(seg)))
            row_ends = np.searchsorted(hr, np.arange(len(seg)) + 1)
            for r, v in enumerate(seg.tolist()):
                a, b = int(row_starts[r]), int(row_ends[r])
                if b - a <= 1:
                    access[v] = [
                        (int(hc[i]), float(vals[i])) for i in range(a, b)
                    ]
                else:
                    access[v] = self._prune_dominated_bulk(
                        hc[a:b], vals[a:b]
                    )
        for v in self.transit_nodes:
            access[v] = [(transit_index[v], 0.0)]
        return access

    def _prune_dominated_bulk(
        self, aidx: np.ndarray, da: np.ndarray
    ) -> List[Tuple[int, float]]:
        """Drop access node a when another a' proves
        d(v,a') + T[a',a] <= d(v,a) (ties keep the earlier entry)."""
        m = len(aidx)
        through = da[:, None] + self.table[np.ix_(aidx, aidx)]
        dominates = through < da[None, :]
        order = np.arange(m)
        dominates |= (through == da[None, :]) & (
            order[:, None] < order[None, :]
        )
        np.fill_diagonal(dominates, False)
        keep = ~dominates.any(axis=0)
        return [
            (int(a), float(d)) for a, d in zip(aidx[keep], da[keep])
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_local(self, source: int, target: int) -> bool:
        """Grid locality filter: nearby cells must use the local search."""
        dx = abs(int(self.cell_x[source]) - int(self.cell_x[target]))
        dy = abs(int(self.cell_y[source]) - int(self.cell_y[target]))
        return max(dx, dy) <= self.locality_cells

    def table_distance(self, source: int, target: int) -> float:
        """Distance through the best access-node pair (paths via transit)."""
        best = INF
        table = self.table
        for a, da in self.access[source]:
            row = table[a]
            for b, db in self.access[target]:
                total = da + row[b] + db
                if total < best:
                    best = total
        return best

    def distance(
        self, source: int, target: int, counters: Counters = NULL_COUNTERS
    ) -> float:
        """Exact network distance.

        The table covers every path through a transit node; the
        transit-pruned bidirectional CH search covers every path avoiding
        them.  The pruned search stays small because upward CH searches
        die quickly once they hit the (high-rank) transit nodes, so
        long-range queries are still dominated by the table scan — the
        behaviour Figure 4 shows.  Real TNR guarantees by construction
        that non-local shortest paths cross a transit node and can skip
        the local search via the grid filter; with rank-selected transit
        nodes that guarantee does not hold, so we always run the (cheap)
        pruned search instead of trading exactness for the filter.
        """
        if source == target:
            return 0.0
        best = self.table_distance(source, target)
        counters.add("table_lookups")
        if self.is_local(source, target):
            counters.add("local_searches")
        local = self.ch.distance_pruned(source, target, self.transit_set)
        if local < best:
            best = local
        return best

    # ------------------------------------------------------------------
    # Oracle protocol
    # ------------------------------------------------------------------
    def build_time(self) -> float:
        return self._build_time

    def size_bytes(self) -> int:
        access_entries = sum(len(a) for a in self.access)
        return int(self.table.nbytes) + access_entries * 12 + self.ch.size_bytes()

    def average_access_nodes(self) -> float:
        return float(np.mean([len(a) for a in self.access]))

    # ------------------------------------------------------------------
    # Serialization (persistent index store)
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Transit table, access nodes and locality grid as flat arrays.

        The underlying CH is *not* embedded — it is its own store
        artifact; ``from_arrays`` receives it as a dependency.
        """
        acc_nodes, off = concat_ragged(
            [np.asarray([a for a, _ in lst], dtype=np.int64) for lst in self.access],
            np.int64,
        )
        acc_dists, _ = concat_ragged(
            [np.asarray([d for _, d in lst], dtype=np.float64) for lst in self.access],
            np.float64,
        )
        return {
            "transit_nodes": np.asarray(self.transit_nodes, dtype=np.int64),
            "table": self.table,
            "access_node": acc_nodes,
            "access_dist": acc_dists,
            "access_off": off,
            "cell_x": self.cell_x,
            "cell_y": self.cell_y,
            "grid_size": np.asarray(self.grid_size),
            "locality_cells": np.asarray(self.locality_cells),
            "grid_origin": np.asarray([self._gx0, self._gy0]),
            "cell_span": np.asarray([self._cell_w, self._cell_h]),
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
        self.grid_size = int(arrays["grid_size"])
        self.locality_cells = int(arrays["locality_cells"])
        self._build_time = float(arrays["build_time"])
        self.transit_nodes = [int(v) for v in arrays["transit_nodes"]]
        self.transit_set = set(self.transit_nodes)
        self.table = np.asarray(arrays["table"], dtype=np.float64)
        off = arrays["access_off"]
        self.access = [
            [
                (int(a), float(d))
                for a, d in zip(
                    ragged_row(arrays["access_node"], off, v),
                    ragged_row(arrays["access_dist"], off, v),
                )
            ]
            for v in range(graph.num_vertices)
        ]
        self._gx0, self._gy0 = (float(v) for v in arrays["grid_origin"])
        self._cell_w, self._cell_h = (float(v) for v in arrays["cell_span"])
        self.cell_x = np.asarray(arrays["cell_x"], dtype=np.int64)
        self.cell_y = np.asarray(arrays["cell_y"], dtype=np.int64)
        return self
