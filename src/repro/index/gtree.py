"""G-tree: hierarchical graph partition index (Zhong et al., TKDE 2015).

The index recursively partitions the road network with fanout ``f`` until
subgraphs have at most ``tau`` vertices (Section 3.5).  Every tree node
stores its *borders* and a *distance matrix*; network distances are
"assembled" along the tree path between two vertices by repeated min-plus
steps over these matrices, with *materialization* caching the distances
from a fixed source to each visited node's borders — the property that
makes repeated queries from one source cheap (MGtree, Section 5).

Implementation notes mirroring the paper:

* **Matrix layout is pluggable** (Section 6.1): the production backend is
  a flat numpy array indexed by grouped child borders; two hash-table
  backends reproduce the Figure 6 ablation.
* **Matrix exactness**: bottom-up construction yields within-subgraph
  distances; a top-down correction pass (docs/architecture.md, "The
  index layer") injects each node's parent-level border-to-border
  distances so all matrices hold *global* shortest distances.  Property
  tests assert assembly == Dijkstra.
* **Improved leaf search** (Appendix A.2.1) runs a within-leaf Dijkstra
  augmented with exact border-to-border "clique" edges, emitting objects
  in exact global-distance order; the pre-improvement behaviour is kept
  for the Figure 22 ablation.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra
from scipy.sparse.csgraph import floyd_warshall as _floyd_warshall

from repro.graph.graph import Graph
from repro.graph.partition import recursive_partition
from repro.index.hierarchy import (
    HierarchyNode,
    PartitionHierarchy,
    clique_coo,
    dedup_min,
    locate,
    pack_matrices,
    unpack_matrix,
)
from repro.updates import RepairUnavailable
from repro.utils.arrays import concat_ragged, ragged_row
from repro.utils.counters import BUILD_COUNTERS, Counters, NULL_COUNTERS

INF = float("inf")


def _matrix_dense(matrix) -> np.ndarray:
    """The dense distance array behind any matrix backend."""
    if hasattr(matrix, "m"):
        return matrix.m
    rows, cols = matrix.shape
    out = np.empty((rows, cols))
    for i in range(rows):
        for j in range(cols):
            out[i, j] = matrix.get(i, j)
    return out


# ----------------------------------------------------------------------
# Distance-matrix backends (Figure 6 / Table 3)
# ----------------------------------------------------------------------
class ArrayMatrix:
    """Flat 2-D numpy distance matrix — the paper's cache-friendly layout.

    Min-plus transitions slice contiguous row/column groups, which is the
    sequential-access property Section 6.1 credits for the >10x win.
    """

    kind = "array"

    def __init__(self, matrix: np.ndarray) -> None:
        self.m = np.asarray(matrix, dtype=np.float64)

    def get(self, i: int, j: int) -> float:
        return float(self.m[i, j])

    def minplus(self, prev: np.ndarray, rows, cols) -> np.ndarray:
        """``out[j] = min_i prev[i] + M[rows[i], cols[j]]`` (vectorised).

        Assembly passes a child's block as a slice, so the block is a
        view or one gather.  Two index arrays would index pointwise, so
        that case is broadcast to the outer product."""
        if not isinstance(rows, slice) and not isinstance(cols, slice):
            rows = np.asarray(rows)[:, None]
        return (prev[:, None] + self.m[rows, cols]).min(axis=0)

    def size_bytes(self) -> int:
        return int(self.m.nbytes)


class HashMatrixTuple:
    """Dict keyed by ``(i, j)`` tuples — the chained-hashing analogue.

    Tuple hashing plus per-entry boxing gives the worst locality of the
    three backends, like ``std::unordered_map`` in the paper.
    """

    kind = "hash_tuple"

    def __init__(self, matrix: np.ndarray) -> None:
        m = np.asarray(matrix, dtype=np.float64)
        self.shape = m.shape
        self.d = {
            (i, j): float(m[i, j])
            for i in range(m.shape[0])
            for j in range(m.shape[1])
        }

    def get(self, i: int, j: int) -> float:
        return self.d[(i, j)]

    def minplus(self, prev: np.ndarray, rows, cols) -> np.ndarray:
        d = self.d
        rows, cols = np.arange(self.shape[0])[rows], np.arange(self.shape[1])[cols]
        out = np.full(len(cols), INF)
        for a, i in enumerate(rows):
            base = prev[a]
            for b, j in enumerate(cols):
                total = base + d[(int(i), int(j))]
                if total < out[b]:
                    out[b] = total
        return out

    def size_bytes(self) -> int:
        # dict entry overhead dominated by key tuple + boxed float.
        return 104 * len(self.d)


class HashMatrixPacked:
    """Dict keyed by packed integers — the open-addressing analogue.

    Cheaper hashing than tuples (like quadratic probing vs chaining) but
    still no sequential locality.
    """

    kind = "hash_packed"

    def __init__(self, matrix: np.ndarray) -> None:
        m = np.asarray(matrix, dtype=np.float64)
        self.shape = m.shape
        ncols = m.shape[1]
        self.ncols = ncols
        self.d = {
            i * ncols + j: float(m[i, j])
            for i in range(m.shape[0])
            for j in range(ncols)
        }

    def get(self, i: int, j: int) -> float:
        return self.d[i * self.ncols + j]

    def minplus(self, prev: np.ndarray, rows, cols) -> np.ndarray:
        d = self.d
        ncols = self.ncols
        rows, cols = np.arange(self.shape[0])[rows], np.arange(ncols)[cols]
        out = np.full(len(cols), INF)
        for a, i in enumerate(rows):
            base = prev[a]
            row = int(i) * ncols
            for b, j in enumerate(cols):
                total = base + d[row + int(j)]
                if total < out[b]:
                    out[b] = total
        return out

    def size_bytes(self) -> int:
        return 72 * len(self.d)


MATRIX_BACKENDS = {
    "array": ArrayMatrix,
    "hash_tuple": HashMatrixTuple,
    "hash_packed": HashMatrixPacked,
}


# ----------------------------------------------------------------------
# Tree node
# ----------------------------------------------------------------------
class GTreeNode(HierarchyNode):
    """One G-tree node (a subgraph of the road network)."""

    __slots__ = (
        "child_borders",
        "matrix",
        "raw",
        "pos_in_parent",
        "own_border_pos",
        "vertex_pos",
        "leaf_csr",
        "leaf_lists",
    )

    def __init__(self, node_id: int, parent: int, level: int) -> None:
        super().__init__(node_id, parent, level)
        self.child_borders: Optional[np.ndarray] = None  # internal only
        self.matrix = None
        # Pass-1 (within-subgraph) matrix: what parents' minigraphs and
        # incremental repair read.  Not serialized.
        self.raw: Optional[np.ndarray] = None
        # Rows/columns of this node's borders in the parent's matrix: one
        # contiguous run, because child borders are grouped by child.
        self.pos_in_parent = slice(0, 0)
        self.own_border_pos: np.ndarray = np.empty(0, dtype=np.int64)
        self.vertex_pos: Optional[Dict[int, int]] = None  # leaf only
        # Lazy leaf-search caches (leaf only): the leaf subgraph plus its
        # exact border clique as a scipy CSR, and the same CSR as flat
        # python lists.  Weight repair drops both together.
        self.leaf_csr = None
        self.leaf_lists: Optional[Tuple[list, list, list]] = None


class GTree(PartitionHierarchy):
    """The G-tree index.

    Parameters
    ----------
    graph:
        Road network.
    fanout:
        Partition fanout f (paper default 4).
    tau:
        Leaf capacity; the paper scales it with network size (64 for DE up
        to 512 for US).  Default picks ``max(32, ~sqrt(V))`` similarly.
    matrix_backend:
        One of ``"array"`` (default), ``"hash_tuple"``, ``"hash_packed"``.

    The build is array-native throughout: vectorised geometric
    partitioning, the shared vectorised minigraph assembly
    (:mod:`repro.index.hierarchy`), multi-source C Dijkstra and
    closed-form min-plus corrections — no per-edge Python work.
    """

    name = "gtree"
    node_class = GTreeNode

    def __init__(
        self,
        graph: Graph,
        fanout: int = 4,
        tau: Optional[int] = None,
        matrix_backend: str = "array",
        seed: int = 0,
        partition=None,
    ) -> None:
        if matrix_backend not in MATRIX_BACKENDS:
            raise ValueError(f"unknown matrix backend {matrix_backend!r}")
        self.graph = graph
        self.fanout = fanout
        if tau is None:
            tau = max(32, int(np.sqrt(graph.num_vertices) / 2) * 4)
        self.tau = tau
        self.matrix_backend = matrix_backend
        BUILD_COUNTERS.add("build:gtree")
        start = time.perf_counter()
        self._build(seed, partition)
        self._build_time = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, seed: int, partition=None) -> None:
        # ``partition`` lets callers (the rebuild-equality harness) pin
        # the hierarchy an existing tree was built on.
        self._flatten(partition if partition is not None else recursive_partition(
            self.graph,
            fanout=self.fanout,
            max_leaf_size=self.tau,
            seed=seed,
            method="geometric",
        ))
        # Grouped child borders + positional indexes.
        for node in self.nodes:
            if node.is_leaf:
                node.vertex_pos = {int(v): i for i, v in enumerate(node.vertices)}
                continue
            offset = 0
            for cid in node.children:
                child = self.nodes[cid]
                child.pos_in_parent = slice(offset, offset + len(child.borders))
                offset += len(child.borders)
            node.child_borders = np.concatenate(
                [self.nodes[cid].borders for cid in node.children]
            )
            node.own_border_pos = locate(node.child_borders, node.borders)[0]
        # The build is the repair routine with every node triggered.
        self._repair(*self.every_node())
        if self.matrix_backend != "array":
            backend = MATRIX_BACKENDS[self.matrix_backend]
            for node in self.nodes:
                node.matrix = backend(node.matrix.m)

    # -- matrix machinery ------------------------------------------------
    @staticmethod
    def _raw_border_to_border(child: GTreeNode) -> np.ndarray:
        """Border-to-border block of a child's pass-1 matrix."""
        if child.is_leaf:
            return child.raw[:, np.searchsorted(child.vertices, child.borders)]
        own = child.own_border_pos
        return child.raw[own[:, None], own]

    def _raw_matrix(self, node: GTreeNode) -> np.ndarray:
        """Pass-1 matrix: within-subgraph distances on the node's minigraph.

        A leaf gets (borders x leaf vertices) from one multi-source C
        Dijkstra.  An internal node gets all pairs over its child
        borders; the child cliques make those minigraphs dense (~half
        the entries are edges), so the solve is dense Floyd–Warshall,
        which measures >2x faster here than heap-based Dijkstra.
        """
        n, border_pos, r, c, d = self.minigraph(node, self._raw_border_to_border)
        if node.is_leaf:
            if len(border_pos) == 0:
                return np.empty((0, n))
            local = csr_matrix((d, (r, c)), shape=(n, n))
            return _csgraph_dijkstra(local, directed=True, indices=border_pos)
        if n == 0:
            return np.empty((0, 0))
        dense = np.full((n, n), INF)
        dense[r, c] = d
        return _floyd_warshall(dense, directed=True)

    @staticmethod
    def _correct_leaf(clique: np.ndarray, m1: np.ndarray) -> np.ndarray:
        """Globalise a leaf matrix: ``out[b, v] = min_c C[b, c] + M1[c, v]``.

        Any global shortest path from border ``b`` into the leaf
        decomposes at its *last entry* border ``c``: the prefix is the
        exact parent-level border-to-border distance ``C[b, c]`` and the
        suffix stays inside the leaf (``M1``).  ``C``'s zero diagonal
        covers never-leaving paths, so one min-plus is the whole
        correction — no second Dijkstra pass.
        """
        if len(clique) == 0 or m1.size == 0:
            return m1
        out = np.empty_like(m1)
        nb = len(clique)
        chunk = max(1, 4_000_000 // max(nb * m1.shape[1], 1))
        for lo in range(0, nb, chunk):
            out[lo : lo + chunk] = (
                clique[lo : lo + chunk, :, None] + m1[None, :, :]
            ).min(axis=1)
        return out

    @staticmethod
    def _correct_internal(
        m1: np.ndarray, own_pos: np.ndarray, clique: np.ndarray
    ) -> np.ndarray:
        """Globalise an internal matrix via first-exit/last-entry borders.

        ``out[i, j] = min(M1[i, j],
        min_{a,b} M1[i, a] + C[a, b] + M1[b, j])`` with ``a``/``b``
        ranging over the node's own borders — the exact out-and-back
        correction, evaluated as two chunked min-plus products instead
        of re-running the minigraph Dijkstra.
        """
        b = len(own_pos)
        if b == 0 or m1.size == 0:
            return m1
        left = m1[:, own_pos]
        # Fold the clique into the exit side once: D[a, j] = min_b
        # C[a, b] + M1[b, j].  The row sweep then needs a single min-plus.
        exit_side = (
            clique[:, :, None] + m1[own_pos, :][None, :, :]
        ).min(axis=1)
        out = m1.copy()
        nb = m1.shape[0]
        chunk = max(1, 4_000_000 // max(b * nb, 1))
        for lo in range(0, nb, chunk):
            seg = left[lo : lo + chunk]
            best = (seg[:, :, None] + exit_side[None, :, :]).min(axis=1)
            np.minimum(out[lo : lo + chunk], best, out=out[lo : lo + chunk])
        return out

    # ------------------------------------------------------------------
    # Build and incremental repair: one two-pass routine
    # ------------------------------------------------------------------
    def _repair(self, triggers: Set[int], affected: Set[int]) -> Dict[str, int]:
        """Two-pass matrix construction restricted to what can have changed.

        Pass 1 (bottom-up, :meth:`recompute_bottom_up`) re-solves the
        pass-1 matrix of every trigger and of every ancestor a bitwise
        change reaches.  Pass 2 (top-down, level order) injects
        parent-level exact border distances so every matrix becomes
        globally exact (out-and-back paths), as closed-form min-plus
        corrections; a node keeps its previous corrected matrix when its
        pass-1 matrix and its parent-clique block are both bitwise
        unchanged.  A build runs this with every node triggered and no
        previous matrices, so both passes visit every node.
        """
        old = [node.matrix for node in self.nodes]
        solves, raw_changed = self.recompute_bottom_up(
            triggers, affected, "raw", self._raw_matrix
        )
        counters = {
            "nodes_affected": len(affected),
            "raw_recomputed": solves,
            "corrected_recomputed": 0,
            "leaves_reset": 0,
        }
        corrected_changed: Set[int] = set()
        for node in sorted(self.nodes, key=lambda nd: nd.level):
            if node.id == self.root:
                # The root's corrected matrix IS its pass-1 matrix.
                if node.id in raw_changed:
                    node.matrix = ArrayMatrix(node.raw)
                    corrected_changed.add(node.id)
                continue
            parent = self.nodes[node.parent]
            if node.id not in raw_changed and parent.id not in corrected_changed:
                continue
            block = node.pos_in_parent
            clique = parent.matrix.m[block, block]
            if node.id not in raw_changed and np.array_equal(
                clique, old[parent.id].m[block, block]
            ):
                continue
            corrected = (
                self._correct_leaf(clique, node.raw)
                if node.is_leaf
                else self._correct_internal(node.raw, node.own_border_pos, clique)
            )
            counters["corrected_recomputed"] += 1
            node.matrix = ArrayMatrix(corrected)
            if old[node.id] is None or not np.array_equal(corrected, old[node.id].m):
                corrected_changed.add(node.id)

        # Leaf search caches embed raw edge weights and the parent
        # clique; drop the stale ones for lazy rebuild.
        for node in self.nodes:
            if node.is_leaf and (
                node.id in triggers
                or node.id in raw_changed
                or node.parent in corrected_changed
            ):
                if node.leaf_csr is not None:
                    counters["leaves_reset"] += 1
                node.leaf_csr = None
                node.leaf_lists = None
        return counters

    def apply_weight_deltas(
        self, changed: Sequence[Tuple[int, int, float, float]]
    ) -> Dict[str, int]:
        """Repair distance matrices after in-place edge-weight changes.

        ``changed`` is :meth:`Graph.apply_weight_deltas` output — the
        graph already holds the new weights.  The repair is the build
        (:meth:`_repair`) restricted to the nodes
        :meth:`~PartitionHierarchy.repair_plan` names, so every
        recomputation calls the same kernels on bitwise identical inputs
        as a from-scratch build on this partition hierarchy and the
        repaired tree is byte-identical to that rebuild.  Returns repair
        counters.  Raises :class:`RepairUnavailable` for trees without
        pass-1 matrices (loaded from the store) or non-array matrix
        backends.
        """
        if self.nodes[self.root].raw is None:
            raise RepairUnavailable(
                "gtree was loaded without pass-1 matrices; rebuild instead"
            )
        if self.matrix_backend != "array":
            raise RepairUnavailable(
                "gtree repair supports the array matrix backend only"
            )
        return self._repair(*self.repair_plan(changed))

    # ------------------------------------------------------------------
    # Assembly (materialized distance computation)
    # ------------------------------------------------------------------
    def leaf_border_distances(self, vertex: int) -> np.ndarray:
        """Exact distances from ``vertex`` to its leaf's borders (O(B))."""
        leaf = self.nodes[int(self.leaf_of[vertex])]
        col = leaf.vertex_pos[int(vertex)]
        return leaf.matrix.m[:, col] if hasattr(leaf.matrix, "m") else np.asarray(
            [leaf.matrix.get(i, col) for i in range(len(leaf.borders))]
        )

    def distances_to_node_borders(
        self,
        source: int,
        node_id: int,
        cache: Dict[int, np.ndarray],
        counters: Counters = NULL_COUNTERS,
    ) -> np.ndarray:
        """Exact distances from ``source`` to the borders of ``node_id``.

        ``cache`` is the materialization store — per-source, shared across
        calls so repeated queries reuse already-assembled prefixes.
        """
        cached = cache.get(node_id)
        if cached is not None:
            return cached
        source_leaf = int(self.leaf_of[source])
        node = self.nodes[node_id]
        if node_id == source_leaf:
            result = self.leaf_border_distances(source)
        elif self.is_ancestor(node_id, source_leaf):
            prev_id = self.child_towards(node_id, source_leaf)
            prev = self.nodes[prev_id]
            d_prev = self.distances_to_node_borders(
                source, prev_id, cache, counters
            )
            counters.add("matrix_ops", len(d_prev) * len(node.own_border_pos))
            result = node.matrix.minplus(
                d_prev, prev.pos_in_parent, node.own_border_pos
            )
        else:
            parent = self.nodes[node.parent]
            if self.is_ancestor(parent.id, source_leaf):
                prev_id = (
                    source_leaf
                    if parent.id == int(self.leaf_of[source])
                    else self.child_towards(parent.id, source_leaf)
                )
                prev = self.nodes[prev_id]
                d_prev = self.distances_to_node_borders(
                    source, prev_id, cache, counters
                )
                rows = prev.pos_in_parent
            else:
                d_prev = self.distances_to_node_borders(
                    source, parent.id, cache, counters
                )
                rows = parent.own_border_pos
            counters.add("matrix_ops", len(d_prev) * len(node.borders))
            result = parent.matrix.minplus(d_prev, rows, node.pos_in_parent)
        cache[node_id] = result
        return result

    def leaf_local_csr(self, leaf: GTreeNode) -> csr_matrix:
        """Cached CSR form of the leaf subgraph + exact border clique.

        Built once per leaf with vectorised extraction; same-leaf
        searches run on it as whole-frontier C Dijkstras.
        """
        if leaf.leaf_csr is None:
            clique = self._leaf_border_clique(leaf)
            vs = leaf.vertices
            batches = [self.induced_triplets(vs)]
            if clique is not None:
                batches.append(
                    clique_coo(np.searchsorted(vs, leaf.borders), clique)
                )
            r, c, d = dedup_min(*zip(*batches))
            leaf.leaf_csr = csr_matrix((d, (r, c)), shape=(len(vs), len(vs)))
        return leaf.leaf_csr

    def leaf_local_lists(self, leaf: GTreeNode) -> Tuple[list, list, list]:
        """:meth:`leaf_local_csr` as flat ``(indptr, indices, data)`` lists.

        The form G-tree kNN's leaf search walks: a search that must
        observe every settle stays in the interpreter, where plain lists
        beat numpy scalar indexing on leaf-sized (~200 vertex) frontiers.
        """
        if leaf.leaf_lists is None:
            local = self.leaf_local_csr(leaf)
            leaf.leaf_lists = (
                local.indptr.tolist(),
                local.indices.tolist(),
                local.data.tolist(),
            )
        return leaf.leaf_lists

    def _same_leaf_sssp(self, source: int) -> np.ndarray:
        """Exact distances from ``source`` to every vertex of its leaf,
        indexed like ``leaf.vertices`` (look up through ``vertex_pos``).

        Dijkstra over the leaf subgraph augmented with the exact border
        clique, so out-and-back paths are covered — one C call on the
        cached leaf CSR.
        """
        leaf = self.nodes[int(self.leaf_of[source])]
        local = self.leaf_local_csr(leaf)
        return _csgraph_dijkstra(
            local, directed=True, indices=leaf.vertex_pos[int(source)]
        )

    def _leaf_border_clique(self, leaf: GTreeNode) -> Optional[np.ndarray]:
        if leaf.id == self.root:
            return None
        parent = self.nodes[leaf.parent]
        block = leaf.pos_in_parent
        if hasattr(parent.matrix, "m"):
            return parent.matrix.m[block, block]
        pos = range(block.start, block.stop)
        return np.asarray([[parent.matrix.get(a, b) for b in pos] for a in pos])

    def distance(
        self,
        source: int,
        target: int,
        cache: Optional[Dict[int, np.ndarray]] = None,
        counters: Counters = NULL_COUNTERS,
    ) -> float:
        """Exact network distance via assembly (optionally materialized)."""
        if source == target:
            return 0.0
        if cache is None:
            cache = {}
        source_leaf = int(self.leaf_of[source])
        target_leaf = int(self.leaf_of[target])
        leaf = self.nodes[target_leaf]
        col = leaf.vertex_pos[int(target)]
        if source_leaf == target_leaf:
            key = ("sssp", source)
            sssp = cache.get(key)  # type: ignore[arg-type]
            if sssp is None:
                sssp = self._same_leaf_sssp(source)
                cache[key] = sssp  # type: ignore[index]
            return float(sssp[col])
        d_borders = self.distances_to_node_borders(
            source, target_leaf, cache, counters
        )
        counters.add("matrix_ops", len(d_borders))
        if hasattr(leaf.matrix, "m"):
            return float((d_borders + leaf.matrix.m[:, col]).min())
        best = INF
        for i in range(len(d_borders)):
            total = d_borders[i] + leaf.matrix.get(i, col)
            if total < best:
                best = total
        return best

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def build_time(self) -> float:
        return self._build_time

    def size_bytes(self) -> int:
        total = 0
        for node in self.nodes:
            total += node.matrix.size_bytes() if node.matrix is not None else 0
            total += node.borders.nbytes
            if node.child_borders is not None:
                total += node.child_borders.nbytes
            if node.vertices is not None:
                total += node.vertices.nbytes
        total += self.leaf_of.nbytes + self.leaf_index_of.nbytes
        return total

    def leaves(self) -> List[GTreeNode]:
        return [n for n in self.nodes if n.is_leaf]

    def num_levels(self) -> int:
        return 1 + max(n.level for n in self.nodes)

    def average_borders(self) -> float:
        return float(np.mean([len(n.borders) for n in self.nodes]))

    # ------------------------------------------------------------------
    # Serialization (persistent index store)
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten the tree into numpy arrays (Section 6.2 layout, on disk).

        The shared :meth:`topology_arrays` plus G-tree's grouped child
        borders, positional indexes and corrected matrices — no pickling
        of node objects.
        """
        nodes = self.nodes
        out = self.topology_arrays()
        empty = np.empty(0, dtype=np.int64)
        ragged = {
            "child_borders": [
                n.child_borders if n.child_borders is not None else empty
                for n in nodes
            ],
            "pos_in_parent": [
                np.arange(n.pos_in_parent.start, n.pos_in_parent.stop)
                for n in nodes
            ],
            "own_border_pos": [n.own_border_pos for n in nodes],
        }
        for name, rows in ragged.items():
            out[name], out[f"{name}_off"] = concat_ragged(rows, np.int64)
        out.update(pack_matrices("matrix", [_matrix_dense(n.matrix) for n in nodes]))
        out["fanout"] = np.asarray(self.fanout)
        out["tau"] = np.asarray(self.tau)
        out["matrix_backend"] = np.asarray(self.matrix_backend)
        out["build_time"] = np.asarray(self._build_time)
        return out

    @classmethod
    def from_arrays(cls, graph: Graph, arrays: Dict[str, np.ndarray]) -> "GTree":
        """Rehydrate a :meth:`to_arrays` dump without rebuilding.

        ``build_time()`` reports the *original* construction wall-time
        (recorded in the artifact), so preprocessing figures stay honest
        when served from the store.  Leaf caches are rebuilt lazily on
        first same-leaf search.  Pass-1 matrices are not serialized, so
        a loaded tree cannot repair in place (``apply_weight_deltas``
        raises RepairUnavailable and callers rebuild).  A ``pos_in_parent``
        row that is not a contiguous ascending run raises ``ValueError``
        naming the node.
        """
        self = cls._from_topology(graph, arrays)
        self.fanout = int(arrays["fanout"])
        self.tau = int(arrays["tau"])
        self.matrix_backend = str(arrays["matrix_backend"])
        self._build_time = float(arrays["build_time"])
        backend = MATRIX_BACKENDS[self.matrix_backend]

        def rag(name: str, i: int) -> np.ndarray:
            return ragged_row(arrays[name], arrays[f"{name}_off"], i)

        for i, node in enumerate(self.nodes):
            pos = rag("pos_in_parent", i)
            lo = int(pos[0]) if len(pos) else 0
            if not np.array_equal(pos, np.arange(lo, lo + len(pos))):
                raise ValueError(
                    f"gtree artifact: pos_in_parent of node {i} is not a "
                    "contiguous ascending run"
                )
            node.pos_in_parent = slice(lo, lo + len(pos))
            node.own_border_pos = rag("own_border_pos", i)
            node.matrix = backend(unpack_matrix(arrays, "matrix", i))
            if node.is_leaf:
                node.vertex_pos = {int(v): j for j, v in enumerate(node.vertices)}
            else:
                node.child_borders = rag("child_borders", i)
        return self


# ----------------------------------------------------------------------
# Occurrence List (G-tree's object index, Sections 3.5 / 7.4)
# ----------------------------------------------------------------------
class OccurrenceList:
    """Which G-tree children contain objects, per node.

    Built bottom-up from the object set; the kNN algorithm consults it to
    prune empty subtrees.  Tracked separately because Section 7.4 measures
    object-index build time and size on their own.
    """

    def __init__(self, gtree: GTree, objects: Sequence[int]) -> None:
        start = time.perf_counter()
        self.gtree = gtree
        self.objects = np.sort(np.asarray(list(objects), dtype=np.int64))
        self._object_set = set(int(o) for o in self.objects)
        self.leaf_objects: Dict[int, List[int]] = {}
        for o in self.objects:
            leaf = int(gtree.leaf_of[o])
            self.leaf_objects.setdefault(leaf, []).append(int(o))
        # Bottom-up propagation of occupancy.
        self.children_with_objects: Dict[int, List[int]] = {}
        occupied: Set[int] = set(self.leaf_objects)
        for node in sorted(gtree.nodes, key=lambda nd: -nd.level):
            if node.is_leaf:
                continue
            present = [c for c in node.children if c in occupied]
            if present:
                self.children_with_objects[node.id] = present
                occupied.add(node.id)
        self._build_time = time.perf_counter() - start

    def add_object(self, vertex: int) -> None:
        """Insert one object — O(tree height), no road-index work.

        This cheap maintenance is the decoupled-indexing advantage the
        paper's Section 2.2 argues for (e.g. parking spaces freeing up).
        """
        vertex = int(vertex)
        if vertex in self._object_set:
            return
        self._object_set.add(vertex)
        self.objects = np.sort(np.append(self.objects, vertex))
        leaf = int(self.gtree.leaf_of[vertex])
        bucket = self.leaf_objects.setdefault(leaf, [])
        bucket.append(vertex)
        bucket.sort()
        node_id = leaf
        while True:
            parent = self.gtree.nodes[node_id].parent
            if parent < 0:
                break
            siblings = self.children_with_objects.setdefault(parent, [])
            if node_id in siblings:
                break
            siblings.append(node_id)
            # Keep child-id order canonical (node.children is ascending)
            # so an incrementally maintained list matches a rebuilt one.
            siblings.sort()
            node_id = parent

    def remove_object(self, vertex: int) -> None:
        """Remove one object, pruning emptied ancestors bottom-up."""
        vertex = int(vertex)
        if vertex not in self._object_set:
            return
        self._object_set.discard(vertex)
        self.objects = self.objects[self.objects != vertex]
        leaf = int(self.gtree.leaf_of[vertex])
        bucket = self.leaf_objects.get(leaf, [])
        if vertex in bucket:
            bucket.remove(vertex)
        node_id = leaf
        while not self.has_objects(node_id):
            if node_id in self.leaf_objects:
                del self.leaf_objects[node_id]
            parent = self.gtree.nodes[node_id].parent
            if parent < 0:
                break
            siblings = self.children_with_objects.get(parent, [])
            if node_id in siblings:
                siblings.remove(node_id)
            if siblings:
                break
            if parent in self.children_with_objects:
                del self.children_with_objects[parent]
            node_id = parent

    def has_objects(self, node_id: int) -> bool:
        return bool(self.leaf_objects.get(node_id)) or bool(
            self.children_with_objects.get(node_id)
        )

    def children(self, node_id: int) -> List[int]:
        return self.children_with_objects.get(node_id, [])

    def objects_in_leaf(self, leaf_id: int) -> List[int]:
        return self.leaf_objects.get(leaf_id, [])

    def is_object(self, vertex: int) -> bool:
        return int(vertex) in self._object_set

    def build_time(self) -> float:
        return self._build_time

    def size_bytes(self) -> int:
        total = self.objects.nbytes
        total += sum(8 * len(v) + 16 for v in self.leaf_objects.values())
        total += sum(8 * len(v) + 16 for v in self.children_with_objects.values())
        return total

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
        cls, gtree: "GTree", arrays: Dict[str, np.ndarray]
    ) -> "OccurrenceList":
        ol = cls(gtree, np.asarray(arrays["objects"], dtype=np.int64))
        ol._build_time = float(arrays["build_time"])
        return ol


# ----------------------------------------------------------------------
# MGtree distance oracle (Section 5)
# ----------------------------------------------------------------------
class GTreeOracle:
    """G-tree as a point-to-point oracle with cross-query materialization.

    IER issues many distance queries from the *same* source; the oracle
    keeps the per-source materialization cache across calls (reset when
    the source changes), which is what makes "IER-Gt" competitive.
    """

    name = "mgtree"

    def __init__(self, gtree: GTree, counters: Counters = NULL_COUNTERS) -> None:
        self.gtree = gtree
        self.counters = counters
        self._source: Optional[int] = None
        self._cache: Dict = {}

    def begin_source(self, source: int) -> None:
        if self._source != source:
            self._source = source
            self._cache = {}

    def distance(self, source: int, target: int) -> float:
        self.begin_source(source)
        return self.gtree.distance(
            source, target, cache=self._cache, counters=self.counters
        )

    def build_time(self) -> float:
        return self.gtree.build_time()

    def size_bytes(self) -> int:
        return self.gtree.size_bytes()
