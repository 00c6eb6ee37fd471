"""ROAD: Route Overlay and Association Directory (Lee et al., TKDE 2012).

ROAD recursively partitions the road network into a hierarchy of *Rnets*
(Section 3.4).  For each Rnet it precomputes *shortcuts* — within-Rnet
shortest distances between every pair of the Rnet's borders — so that a
kNN expansion reaching a border of an object-free Rnet can bypass its
interior entirely.  The *Route Overlay* stores, per vertex, the Rnets the
vertex borders (with its shortcut rows); the *Association Directory* is
the decoupled object index telling the search which Rnets contain objects.

Shortcuts are computed bottom-up like the paper: leaf Rnets run Dijkstra
restricted to their subgraph, higher levels run over a minigraph of child
borders (child shortcut cliques + cross edges).  Within-Rnet distances are
the correct semantics here: any shortest path crossing an Rnet decomposes
at its borders, and segments outside the Rnet are explored by the normal
expansion.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.graph.graph import Graph
from repro.graph.partition import recursive_partition
from repro.index.hierarchy import (
    HierarchyNode,
    PartitionHierarchy,
    pack_matrices,
    unpack_matrix,
)
from repro.utils.counters import BUILD_COUNTERS


class RnetNode(HierarchyNode):
    """One Rnet in the hierarchy."""

    __slots__ = ("border_pos", "shortcut_matrix", "interior_size")

    def __init__(self, node_id: int, parent: int, level: int) -> None:
        super().__init__(node_id, parent, level)
        self.border_pos: Dict[int, int] = {}
        self.shortcut_matrix: Optional[np.ndarray] = None
        self.interior_size = 0


class RoadIndex(PartitionHierarchy):
    """The ROAD road-network index (Route Overlay + shortcut hierarchy).

    Parameters
    ----------
    graph:
        Road network.
    fanout:
        Partition fanout f (paper default 4).
    levels:
        Hierarchy depth l.  The paper increases l with network size (7 for
        DE up to 11 for US); the default scales as ``log_f(V / 50)``.
    """

    name = "road"
    node_class = RnetNode

    def __init__(
        self,
        graph: Graph,
        fanout: int = 4,
        levels: Optional[int] = None,
        seed: int = 0,
        partition=None,
    ) -> None:
        self.graph = graph
        self.fanout = fanout
        if levels is None:
            levels = max(2, round(math.log(max(graph.num_vertices / 50, 4), fanout)))
        self.levels = levels
        BUILD_COUNTERS.add("build:road")
        start = time.perf_counter()
        self._build(seed, partition)
        self._build_time = time.perf_counter() - start

    @property
    def rnets(self) -> List[RnetNode]:
        return self.nodes

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, seed: int, partition=None) -> None:
        # The multilevel partitioner reads edge weights; ``partition``
        # pins the hierarchy so a rebuild after weight deltas can be
        # compared against in-place repair (see apply_weight_deltas).
        self._flatten(partition if partition is not None else recursive_partition(
            self.graph, fanout=self.fanout, max_levels=self.levels, seed=seed
        ))
        for node in self.nodes:
            node.border_pos = {int(b): i for i, b in enumerate(node.borders)}
            node.interior_size = len(self.node_vertices(node)) - len(node.borders)
        self._route_overlay()
        # The build is the repair routine with every Rnet triggered (so
        # every matrix counts as changed).
        self._repair(*self.every_node())

    def _route_overlay(self) -> None:
        """Route Overlay: for each vertex, the chain of Rnets it borders,
        ordered shallowest (highest level in paper terms) first.  The
        chain is contiguous down to the leaf Rnet by construction; it
        depends only on the partition, so build and load derive it once."""
        self.route_overlay: List[List[int]] = [
            [] for _ in range(self.graph.num_vertices)
        ]
        for node in sorted(self.rnets, key=lambda nd: nd.level):
            if node.id == self.root:
                continue  # the root has no borders and cannot be bypassed
            for b in node.borders:
                self.route_overlay[int(b)].append(node.id)

    def _shortcuts(self, node: RnetNode) -> np.ndarray:
        """Within-Rnet border-to-border distances for one Rnet: one
        multi-source C Dijkstra from the Rnet's own borders over its
        minigraph (children's shortcut matrices must be current)."""
        n, border_pos, r, c, d = self.minigraph(
            node, lambda child: child.shortcut_matrix
        )
        if len(border_pos) == 0:
            return np.empty((0, 0))
        local = csr_matrix((d, (r, c)), shape=(n, n))
        return _csgraph_dijkstra(local, directed=True, indices=border_pos)[
            :, border_pos
        ]

    # ------------------------------------------------------------------
    # Build and incremental repair: one bottom-up routine
    # ------------------------------------------------------------------
    def _repair(self, triggers: Set[int], affected: Set[int]) -> Dict[str, int]:
        solves, changed = self.recompute_bottom_up(
            triggers, affected, "shortcut_matrix", self._shortcuts
        )
        return {
            "rnets_affected": len(affected),
            "shortcuts_recomputed": solves,
            "shortcuts_changed": len(changed),
        }

    def apply_weight_deltas(
        self, changed: Sequence[Tuple[int, int, float, float]]
    ) -> Dict[str, int]:
        """Repair shortcut matrices after in-place edge-weight changes.

        ``changed`` is :meth:`Graph.apply_weight_deltas` output.  The
        repair is the build restricted to the Rnets
        :meth:`~PartitionHierarchy.repair_plan` names — bottom-up along
        the endpoint-leaf ancestor chains, stopping early when a
        recomputed matrix is bitwise unchanged.  A
        :class:`~repro.knn.road_knn.RoadKNN` built before keeps searching
        its own overlay (a copy of the shortcut values) until rebuilt.
        Because :meth:`_shortcuts` is the build's own per-node
        computation, the repaired index is byte-identical to a rebuild on
        the same partition hierarchy.  Returns repair counters.
        """
        return self._repair(*self.repair_plan(changed))

    # ------------------------------------------------------------------
    # Search support
    # ------------------------------------------------------------------
    in_rnet = PartitionHierarchy.contains

    def shortcut_row(self, rnet_id: int, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        """(border vertices, shortcut distances) from ``vertex`` in an Rnet."""
        node = self.rnets[rnet_id]
        row = node.border_pos[int(vertex)]
        return node.borders, node.shortcut_matrix[row]

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def build_time(self) -> float:
        return self._build_time

    def size_bytes(self) -> int:
        total = self.leaf_of.nbytes + self.leaf_index_of.nbytes
        for node in self.rnets:
            if node.shortcut_matrix is not None:
                total += int(node.shortcut_matrix.nbytes)
            total += node.borders.nbytes
            if node.vertices is not None:
                total += node.vertices.nbytes
        # Route Overlay entries: (rnet id, row offset) per bordered Rnet.
        total += sum(12 * len(chain) for chain in self.route_overlay)
        return total

    def num_rnets(self) -> int:
        return len(self.rnets) - 1  # root excluded

    def average_borders(self) -> float:
        return float(
            np.mean([len(nd.borders) for nd in self.rnets if nd.id != self.root])
        )

    # ------------------------------------------------------------------
    # Serialization (persistent index store)
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten the Rnet hierarchy and shortcut matrices to numpy arrays.

        The Route Overlay is a *derived* structure, recomputed cheaply
        by ``from_arrays`` — only the expensive Dijkstra products
        (shortcut matrices) are stored.
        """
        out = self.topology_arrays()
        out["interior_size"] = np.asarray(
            [n.interior_size for n in self.nodes], dtype=np.int64
        )
        out.update(pack_matrices("shortcut", [n.shortcut_matrix for n in self.nodes]))
        out["fanout"] = np.asarray(self.fanout)
        out["levels"] = np.asarray(self.levels)
        out["build_time"] = np.asarray(self._build_time)
        return out

    @classmethod
    def from_arrays(cls, graph: Graph, arrays: Dict[str, np.ndarray]) -> "RoadIndex":
        """Rehydrate a :meth:`to_arrays` dump without re-running Dijkstra.

        Repair still works on a loaded index (it needs only the current
        shortcut matrices)."""
        self = cls._from_topology(graph, arrays)
        self.fanout = int(arrays["fanout"])
        self.levels = int(arrays["levels"])
        self._build_time = float(arrays["build_time"])
        for i, node in enumerate(self.nodes):
            node.interior_size = int(arrays["interior_size"][i])
            node.border_pos = {int(b): j for j, b in enumerate(node.borders)}
            node.shortcut_matrix = unpack_matrix(arrays, "shortcut", i)
        self._route_overlay()
        return self


class AssociationDirectory:
    """ROAD's decoupled object index (Sections 3.4 / 7.4).

    A bit per Rnet ("contains an object?") propagated bottom-up, plus a
    byte-array of per-vertex object flags — the paper highlights that this
    is cheaper to store than G-tree's Occurrence List because it need not
    record *which* children contain objects.
    """

    def __init__(self, road: RoadIndex, objects: Sequence[int]) -> None:
        start = time.perf_counter()
        self.road = road
        self.objects = np.sort(np.asarray(list(objects), dtype=np.int64))
        n = road.graph.num_vertices
        self._vertex_flag = bytearray(n)
        # Per-Rnet object *counts* rather than flags, so removals can
        # clear occupancy without a rescan (cheap updates are the point
        # of decoupled indexing, Section 2.2).
        self._rnet_count = [0] * len(road.rnets)
        for o in self.objects:
            if not self._vertex_flag[o]:
                self._occupy(int(o), 1)
        self._build_time = time.perf_counter() - start

    def _occupy(self, vertex: int, delta: int) -> None:
        """Flag or unflag ``vertex`` and move the object count of every
        Rnet on its leaf-to-root chain by ``delta``."""
        self._vertex_flag[vertex] = delta > 0
        rnet = int(self.road.leaf_of[vertex])
        while rnet >= 0:
            self._rnet_count[rnet] += delta
            rnet = self.road.rnets[rnet].parent

    def add_object(self, vertex: int) -> None:
        """Insert one object — O(hierarchy depth)."""
        vertex = int(vertex)
        if not self._vertex_flag[vertex]:
            self._occupy(vertex, 1)
            self.objects = np.sort(np.append(self.objects, vertex))

    def remove_object(self, vertex: int) -> None:
        """Remove one object — O(hierarchy depth)."""
        vertex = int(vertex)
        if self._vertex_flag[vertex]:
            self._occupy(vertex, -1)
            self.objects = self.objects[self.objects != vertex]

    def is_object(self, vertex: int) -> bool:
        return bool(self._vertex_flag[vertex])

    def rnet_has_object(self, rnet_id: int) -> bool:
        return self._rnet_count[rnet_id] > 0

    def build_time(self) -> float:
        return self._build_time

    def size_bytes(self) -> int:
        # Vertex flags as a bit-array; per-Rnet occupancy counts as
        # uint16 (the updatable generalisation of the paper's bit-array).
        return (
            len(self._vertex_flag) // 8
            + 2 * len(self._rnet_count)
            + self.objects.nbytes
        )

    # ------------------------------------------------------------------
    # Serialization (persistent index store)
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The object set is the whole state — occupancy is derived."""
        return {
            "objects": self.objects,
            "build_time": np.asarray(self._build_time),
        }

    @classmethod
    def from_arrays(
        cls, road: RoadIndex, arrays: Dict[str, np.ndarray]
    ) -> "AssociationDirectory":
        ad = cls(road, np.asarray(arrays["objects"], dtype=np.int64))
        ad._build_time = float(arrays["build_time"])
        return ad
