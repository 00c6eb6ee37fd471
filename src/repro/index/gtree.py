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
  distances; a top-down correction pass (documented in DESIGN.md) injects
  each node's parent-level border-to-border distances so all matrices
  hold *global* shortest distances.  Property tests assert assembly ==
  Dijkstra.
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
from repro.updates import RepairUnavailable
from repro.utils.arrays import concat_ragged, ragged_row
from repro.utils.counters import BUILD_COUNTERS, Counters, NULL_COUNTERS

INF = float("inf")


def _dedup_min(rows, cols, data):
    """Collapse duplicate COO entries to their *minimum* weight.

    scipy's constructors *sum* duplicate entries, which is wrong for
    distance graphs (a raw edge coinciding with a clique edge must keep
    the smaller weight).  Vectorised: sort by (row, col), reduce runs.
    """
    rows = np.concatenate(rows) if isinstance(rows, (list, tuple)) else rows
    cols = np.concatenate(cols) if isinstance(cols, (list, tuple)) else cols
    data = np.concatenate(data) if isinstance(data, (list, tuple)) else data
    if len(rows) == 0:
        return rows, cols, data
    order = np.lexsort((cols, rows))
    r, c, d = rows[order], cols[order], data[order]
    first = np.empty(len(r), dtype=bool)
    first[0] = True
    first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(first)
    return r[starts], c[starts], np.minimum.reduceat(d, starts)


def _min_csr(n: int, rows, cols, data) -> csr_matrix:
    """CSR from COO triplets with duplicates collapsed to their minimum."""
    r, c, d = _dedup_min(rows, cols, data)
    if len(r) == 0:
        return csr_matrix((n, n))
    return csr_matrix((d, (r, c)), shape=(n, n))


def _clique_coo(positions: np.ndarray, matrix: np.ndarray):
    """COO triplets for a distance clique over local ``positions``."""
    nb = len(positions)
    if nb == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    rows = np.repeat(positions, nb)
    cols = np.tile(positions, nb)
    data = np.asarray(matrix, dtype=np.float64).ravel()
    keep = np.isfinite(data) & (rows != cols)
    return rows[keep], cols[keep], data[keep]


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

    def minplus(
        self, prev: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """``out[j] = min_i prev[i] + M[rows[i], cols[j]]`` (vectorised)."""
        sub = self.m[np.ix_(rows, cols)]
        return (prev[:, None] + sub).min(axis=0)

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

    def minplus(
        self, prev: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        d = self.d
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

    def minplus(
        self, prev: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        d = self.d
        ncols = self.ncols
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
class GTreeNode:
    """One G-tree node (a subgraph of the road network)."""

    __slots__ = (
        "id",
        "parent",
        "children",
        "level",
        "leaf_lo",
        "leaf_hi",
        "vertices",
        "borders",
        "child_borders",
        "matrix",
        "pos_in_parent",
        "own_border_pos",
        "vertex_pos",
        "leaf_csr",
        "leaf_lists",
    )

    def __init__(self, node_id: int, parent: int, level: int) -> None:
        self.id = node_id
        self.parent = parent
        self.children: List[int] = []
        self.level = level
        self.leaf_lo = 0  # DFS leaf-interval for subtree membership tests
        self.leaf_hi = 0
        self.vertices: Optional[np.ndarray] = None  # leaf only
        self.borders: np.ndarray = np.empty(0, dtype=np.int64)
        self.child_borders: Optional[np.ndarray] = None  # internal only
        self.matrix = None
        self.pos_in_parent: np.ndarray = np.empty(0, dtype=np.int64)
        self.own_border_pos: np.ndarray = np.empty(0, dtype=np.int64)
        self.vertex_pos: Optional[Dict[int, int]] = None  # leaf only
        # Lazy leaf-search caches (leaf only): the leaf subgraph plus its
        # exact border clique as a scipy CSR, and the same CSR as flat
        # python lists.  Weight repair drops both together.
        self.leaf_csr = None
        self.leaf_lists: Optional[Tuple[list, list, list]] = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class GTree:
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
    partitioning, vectorised minigraph assembly, multi-source C Dijkstra
    and closed-form min-plus corrections — no per-edge Python work.
    """

    name = "gtree"

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
        graph = self.graph
        # ``partition`` lets callers (the rebuild-equality harness) pin
        # the hierarchy an existing tree was built on.
        hierarchy = partition if partition is not None else recursive_partition(
            graph,
            fanout=self.fanout,
            max_leaf_size=self.tau,
            seed=seed,
            method="geometric",
        )
        self.partition = hierarchy

        # Flatten the hierarchy into id-addressed nodes.
        self.nodes: List[GTreeNode] = []

        def add(pnode, parent_id: int, level: int) -> int:
            node = GTreeNode(len(self.nodes), parent_id, level)
            self.nodes.append(node)
            for child in pnode.children:
                cid = add(child, node.id, level + 1)
                node.children.append(cid)
            if not pnode.children:
                node.vertices = np.sort(np.asarray(pnode.vertices, dtype=np.int64))
            return node.id

        add(hierarchy, -1, 0)
        self.root = 0

        # DFS leaf intervals + per-vertex leaf assignment.
        n = graph.num_vertices
        self.leaf_of = np.full(n, -1, dtype=np.int64)
        self.leaf_index_of = np.full(n, -1, dtype=np.int64)
        counter = [0]

        def assign(node: GTreeNode) -> None:
            node.leaf_lo = counter[0]
            if node.is_leaf:
                self.leaf_of[node.vertices] = node.id
                counter[0] += 1
            else:
                for cid in node.children:
                    assign(self.nodes[cid])
            node.leaf_hi = counter[0]

        assign(self.nodes[self.root])
        for node in self.nodes:
            if node.is_leaf:
                self.leaf_index_of[node.vertices] = node.leaf_lo

        # Borders: vertex u is a border of node N iff some neighbour's
        # leaf-interval index falls outside N's interval.  One reduceat
        # per bound over the flat CSR arrays — no per-vertex loop.
        nmin = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        nmax = np.full(n, -1, dtype=np.int64)
        li_all = self.leaf_index_of[graph.edge_target]
        nonempty = np.flatnonzero(np.diff(graph.vertex_start) > 0)
        if len(nonempty):
            seg_starts = graph.vertex_start[nonempty]
            nmin[nonempty] = np.minimum.reduceat(li_all, seg_starts)
            nmax[nonempty] = np.maximum.reduceat(li_all, seg_starts)
        for node in self.nodes:
            verts = self._node_vertices(node)
            mask = (nmin[verts] < node.leaf_lo) | (nmax[verts] >= node.leaf_hi)
            node.borders = verts[mask]

        # Grouped child borders + positional indexes.
        for node in self.nodes:
            if node.is_leaf:
                node.vertex_pos = {int(v): i for i, v in enumerate(node.vertices)}
                continue
            groups = []
            offset = 0
            for cid in node.children:
                child = self.nodes[cid]
                groups.append(child.borders)
                child.pos_in_parent = np.arange(
                    offset, offset + len(child.borders), dtype=np.int64
                )
                offset += len(child.borders)
            node.child_borders = (
                np.concatenate(groups) if groups else np.empty(0, dtype=np.int64)
            )
            pos_of = {int(v): i for i, v in enumerate(node.child_borders)}
            node.own_border_pos = np.asarray(
                [pos_of[int(b)] for b in node.borders], dtype=np.int64
            )

        self._build_matrices_bulk()

    def _node_vertices(self, node: GTreeNode) -> np.ndarray:
        if node.is_leaf:
            return node.vertices
        parts = [self._node_vertices(self.nodes[c]) for c in node.children]
        return np.concatenate(parts)

    # -- matrix machinery ------------------------------------------------
    def _child_border_to_border(self, child: GTreeNode) -> np.ndarray:
        """Border-to-border submatrix of a child node's raw matrix."""
        m = child.matrix.m if hasattr(child.matrix, "m") else None
        if m is None:
            raise RuntimeError("matrices must be built as arrays first")
        if child.is_leaf:
            cols = [child.vertex_pos[int(b)] for b in child.borders]
            rows = np.arange(len(child.borders))
            return m[np.ix_(rows, cols)]
        return m[np.ix_(child.own_border_pos, child.own_border_pos)]

    def _induced_triplets(self, vs: np.ndarray):
        """COO triplets of the subgraph induced by sorted vertex ids ``vs``.

        Direct CSR-slice gathering — one batch of numpy ops per call,
        an order of magnitude cheaper than scipy's generic fancy
        indexing for the small subgraphs the build extracts per node.
        """
        graph = self.graph
        starts = graph.vertex_start[vs]
        lens = (graph.vertex_start[vs + 1] - starts).astype(np.int64)
        total = int(lens.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0)
        inc = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        gather = np.repeat(starts, lens) + inc
        tg = graph.edge_target[gather]
        loc = np.searchsorted(vs, tg)
        loc_clipped = np.minimum(loc, len(vs) - 1)
        keep = vs[loc_clipped] == tg
        rows = np.repeat(np.arange(len(vs), dtype=np.int64), lens)[keep]
        return rows, loc_clipped[keep], graph.edge_weight[gather][keep]

    def _leaf_matrix_bulk(
        self, node: GTreeNode, border_clique: Optional[np.ndarray]
    ) -> np.ndarray:
        """(borders x leaf vertices) distance matrix for a leaf.

        The minigraph — induced leaf subgraph plus the optional exact
        border clique — is assembled entirely with array operations and
        solved in one multi-source C Dijkstra call.
        """
        vs = node.vertices
        ir, ic, iw = self._induced_triplets(vs)
        bpos = np.searchsorted(vs, node.borders)
        rows, cols, data = [ir], [ic], [iw]
        if border_clique is not None:
            cr, cc, cd = _clique_coo(bpos, border_clique)
            rows.append(cr)
            cols.append(cc)
            data.append(cd)
        if len(bpos) == 0:
            return np.empty((0, len(vs)))
        local = _min_csr(len(vs), rows, cols, data)
        return _csgraph_dijkstra(local, directed=True, indices=bpos)

    def _internal_matrix_bulk(
        self, node: GTreeNode, own_clique: Optional[np.ndarray]
    ) -> np.ndarray:
        """Internal-node matrix over the ``node.child_borders`` minigraph.

        Edges: per-child border cliques (from child matrices), original
        cross edges between children (both endpoints are borders of
        their child, hence present in ``child_borders``), and optionally
        a clique over the node's own borders carrying parent-level exact
        distances — built as COO triplet batches, duplicates collapsed
        to their minimum.  The child
        cliques make these minigraphs dense (~half the entries are
        edges), so the all-pairs solve uses dense Floyd–Warshall, which
        measures >2x faster here than heap-based multi-source Dijkstra.
        """
        cb = node.child_borders
        nb = len(cb)
        if nb == 0:
            return np.empty((0, 0))
        buf = self._pos_buf
        buf[cb] = np.arange(nb)
        try:
            rows: List[np.ndarray] = []
            cols: List[np.ndarray] = []
            data: List[np.ndarray] = []
            child_of_pos = np.empty(nb, dtype=np.int64)
            for ci, cid in enumerate(node.children):
                child = self.nodes[cid]
                idx = child.pos_in_parent
                child_of_pos[idx] = ci
                cr, cc, cd = _clique_coo(
                    idx, self._child_border_to_border(child)
                )
                rows.append(cr)
                cols.append(cc)
                data.append(cd)
            graph = self.graph
            starts = graph.vertex_start[cb]
            lens = (graph.vertex_start[cb + 1] - starts).astype(np.int64)
            total = int(lens.sum())
            if total:
                inc = np.arange(total) - np.repeat(
                    np.cumsum(lens) - lens, lens
                )
                gather = np.repeat(starts, lens) + inc
                j = buf[graph.edge_target[gather]]
                keep = j >= 0
                r2 = np.repeat(np.arange(nb, dtype=np.int64), lens)[keep]
                j2 = j[keep]
                w2 = graph.edge_weight[gather][keep]
                cross = child_of_pos[r2] != child_of_pos[j2]
                rows.append(r2[cross])
                cols.append(j2[cross])
                data.append(w2[cross])
            if own_clique is not None:
                cr, cc, cd = _clique_coo(node.own_border_pos, own_clique)
                rows.append(cr)
                cols.append(cc)
                data.append(cd)
            r, c, d = _dedup_min(rows, cols, data)
        finally:
            buf[cb] = -1
        dense = np.full((nb, nb), INF)
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

    def _build_matrices_bulk(self) -> None:
        """Two-pass matrix construction.

        Pass 1 (bottom-up) computes within-subgraph matrices, every
        minigraph assembled vectorised and solved by multi-source C
        Dijkstra.  Pass 2 (top-down) injects parent-level exact border
        distances so every matrix becomes globally exact (out-and-back
        paths), as closed-form min-plus corrections — no per-edge Python
        work anywhere."""
        self._pos_buf = np.full(self.graph.num_vertices, -1, dtype=np.int64)
        post_order: List[GTreeNode] = []

        def visit(node: GTreeNode) -> None:
            for cid in node.children:
                visit(self.nodes[cid])
            post_order.append(node)

        visit(self.nodes[self.root])
        for node in post_order:
            if node.is_leaf:
                node.matrix = ArrayMatrix(self._leaf_matrix_bulk(node, None))
            else:
                node.matrix = ArrayMatrix(self._internal_matrix_bulk(node, None))
        del self._pos_buf

        # Pass-1 matrices of children feed their parent's correction, so
        # keep them and correct top-down in level order.  They are also
        # retained for incremental weight-delta repair.
        raw = {node.id: node.matrix.m for node in self.nodes}
        self._raw = raw
        for node in sorted(self.nodes, key=lambda nd: nd.level):
            if node.id == self.root:
                continue
            parent = self.nodes[node.parent]
            clique = parent.matrix.m[
                np.ix_(node.pos_in_parent, node.pos_in_parent)
            ]
            if node.is_leaf:
                node.matrix = ArrayMatrix(
                    self._correct_leaf(clique, raw[node.id])
                )
            else:
                node.matrix = ArrayMatrix(
                    self._correct_internal(
                        raw[node.id], node.own_border_pos, clique
                    )
                )

        if self.matrix_backend != "array":
            backend = MATRIX_BACKENDS[self.matrix_backend]
            for node in self.nodes:
                node.matrix = backend(node.matrix.m)

    # ------------------------------------------------------------------
    # Incremental repair (live weight deltas)
    # ------------------------------------------------------------------
    def _ancestor_chain(self, node_id: int) -> List[int]:
        chain: List[int] = []
        while node_id >= 0:
            chain.append(node_id)
            node_id = self.nodes[node_id].parent
        return chain

    def apply_weight_deltas(
        self, changed: Sequence[Tuple[int, int, float, float]]
    ) -> Dict[str, int]:
        """Repair distance matrices after in-place edge-weight changes.

        ``changed`` is :meth:`Graph.apply_weight_deltas` output — the
        graph already holds the new weights.  The repair replays the
        exact two-pass build restricted to *affected* nodes (the union
        of the ancestor chains of the changed edges' endpoint leaves):

        * a raw edge appears in exactly one minigraph — the endpoint
          leaf for an intra-leaf edge, else the LCA of the two endpoint
          leaves — so pass-1 recomputation starts there and propagates
          upward only while a child's raw matrix actually changed
          (bitwise compare);
        * pass 2 sweeps in the build's level order from an all-raw
          matrix state, reusing the previous corrected matrix whenever
          a node's raw matrix and its parent-clique block are both
          bitwise unchanged.

        Because every recomputation calls the same kernels on bitwise
        identical inputs as a from-scratch build on this partition
        hierarchy, the repaired tree is byte-identical to that rebuild.
        Returns repair counters.  Raises :class:`RepairUnavailable` for
        trees without raw matrices (loaded from the store) or non-array
        matrix backends.
        """
        if getattr(self, "_raw", None) is None:
            raise RepairUnavailable(
                "gtree was loaded without pass-1 matrices; rebuild instead"
            )
        if self.matrix_backend != "array":
            raise RepairUnavailable(
                "gtree repair supports the array matrix backend only"
            )
        counters = {
            "nodes_affected": 0,
            "raw_recomputed": 0,
            "corrected_recomputed": 0,
            "leaves_reset": 0,
        }
        if not changed:
            return counters

        triggers: Set[int] = set()
        affected: Set[int] = set()
        for u, v, _old, _new in changed:
            chain_u = self._ancestor_chain(int(self.leaf_of[int(u)]))
            chain_v = self._ancestor_chain(int(self.leaf_of[int(v)]))
            affected.update(chain_u)
            affected.update(chain_v)
            if chain_u[0] == chain_v[0]:
                triggers.add(chain_u[0])
            else:
                common = set(chain_u) & set(chain_v)
                triggers.add(max(common, key=lambda nid: self.nodes[nid].level))
        counters["nodes_affected"] = len(affected)

        raw = self._raw
        old_corr = {node.id: node.matrix for node in self.nodes}
        # Full-swap discipline: both build passes read *raw* child
        # matrices, so restore the all-raw state the build passes see.
        for node in self.nodes:
            node.matrix = ArrayMatrix(raw[node.id])

        self._pos_buf = np.full(self.graph.num_vertices, -1, dtype=np.int64)
        try:
            # Pass 1: bottom-up raw recomputation over affected nodes.
            raw_changed: Set[int] = set()
            for node in sorted(
                (self.nodes[i] for i in affected), key=lambda nd: -nd.level
            ):
                if node.id not in triggers and not any(
                    c in raw_changed for c in node.children
                ):
                    continue
                new_raw = (
                    self._leaf_matrix_bulk(node, None)
                    if node.is_leaf
                    else self._internal_matrix_bulk(node, None)
                )
                counters["raw_recomputed"] += 1
                if not np.array_equal(raw[node.id], new_raw):
                    raw[node.id] = new_raw
                    node.matrix = ArrayMatrix(new_raw)
                    raw_changed.add(node.id)

            # Pass 2: level-order correction sweep with bitwise pruning.
            corrected_changed: Set[int] = set()
            if self.root in raw_changed:
                corrected_changed.add(self.root)
            for node in sorted(self.nodes, key=lambda nd: nd.level):
                if node.id == self.root:
                    continue  # the root's corrected matrix IS its raw one
                parent = self.nodes[node.parent]
                if (
                    node.id not in raw_changed
                    and parent.id not in corrected_changed
                ):
                    node.matrix = old_corr[node.id]
                    continue
                clique = parent.matrix.m[
                    np.ix_(node.pos_in_parent, node.pos_in_parent)
                ]
                if node.id not in raw_changed and np.array_equal(
                    clique,
                    old_corr[parent.id].m[
                        np.ix_(node.pos_in_parent, node.pos_in_parent)
                    ],
                ):
                    node.matrix = old_corr[node.id]
                    continue
                corrected = (
                    self._correct_leaf(clique, raw[node.id])
                    if node.is_leaf
                    else self._correct_internal(
                        raw[node.id], node.own_border_pos, clique
                    )
                )
                counters["corrected_recomputed"] += 1
                node.matrix = ArrayMatrix(corrected)
                if not np.array_equal(corrected, old_corr[node.id].m):
                    corrected_changed.add(node.id)
        finally:
            del self._pos_buf

        # Leaf search caches embed raw edge weights and the parent
        # clique; drop the stale ones for lazy rebuild.
        for node in self.nodes:
            if not node.is_leaf:
                continue
            if (
                node.id in triggers
                or node.id in raw_changed
                or (node.parent >= 0 and node.parent in corrected_changed)
            ):
                if node.leaf_csr is not None:
                    counters["leaves_reset"] += 1
                node.leaf_csr = None
                node.leaf_lists = None
        return counters

    # ------------------------------------------------------------------
    # Assembly (materialized distance computation)
    # ------------------------------------------------------------------
    def is_ancestor(self, node_id: int, leaf_id: int) -> bool:
        node = self.nodes[node_id]
        leaf = self.nodes[leaf_id]
        return node.leaf_lo <= leaf.leaf_lo and leaf.leaf_hi <= node.leaf_hi

    def child_towards(self, node_id: int, leaf_id: int) -> int:
        """The child of ``node_id`` whose subtree contains ``leaf_id``."""
        leaf = self.nodes[leaf_id]
        for cid in self.nodes[node_id].children:
            child = self.nodes[cid]
            if child.leaf_lo <= leaf.leaf_lo and leaf.leaf_hi <= child.leaf_hi:
                return cid
        raise ValueError(f"node {node_id} is not an ancestor of leaf {leaf_id}")

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
            counters.add("matrix_ops", len(d_prev) * len(node.pos_in_parent))
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
            ir, ic, iw = self._induced_triplets(vs)
            rows, cols, data = [ir], [ic], [iw]
            if clique is not None:
                bpos = np.searchsorted(vs, leaf.borders)
                cr, cc, cd = _clique_coo(bpos, clique)
                rows.append(cr)
                cols.append(cc)
                data.append(cd)
            leaf.leaf_csr = _min_csr(len(vs), rows, cols, data)
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

    def _same_leaf_sssp(self, source: int) -> Dict[int, float]:
        """Exact distances from ``source`` to every vertex of its leaf.

        Dijkstra over the leaf subgraph augmented with the exact border
        clique, so out-and-back paths are covered — one C call on the
        cached leaf CSR.
        """
        leaf = self.nodes[int(self.leaf_of[source])]
        local = self.leaf_local_csr(leaf)
        dist = _csgraph_dijkstra(
            local, directed=True, indices=leaf.vertex_pos[int(source)]
        )
        return {int(v): float(dist[i]) for i, v in enumerate(leaf.vertices)}

    def _leaf_border_clique(self, leaf: GTreeNode) -> Optional[np.ndarray]:
        if leaf.id == self.root:
            return None
        parent = self.nodes[leaf.parent]
        pm = parent.matrix.m if hasattr(parent.matrix, "m") else None
        if pm is None:
            nb = len(leaf.pos_in_parent)
            return np.asarray(
                [
                    [
                        parent.matrix.get(int(leaf.pos_in_parent[a]), int(leaf.pos_in_parent[b]))
                        for b in range(nb)
                    ]
                    for a in range(nb)
                ]
            )
        return pm[np.ix_(leaf.pos_in_parent, leaf.pos_in_parent)]

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
        if source_leaf == target_leaf:
            key = ("sssp", source)
            sssp = cache.get(key)  # type: ignore[arg-type]
            if sssp is None:
                sssp = self._same_leaf_sssp(source)
                cache[key] = sssp  # type: ignore[index]
            return float(sssp[int(target)])
        d_borders = self.distances_to_node_borders(
            source, target_leaf, cache, counters
        )
        leaf = self.nodes[target_leaf]
        col = leaf.vertex_pos[int(target)]
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

        Ragged per-node sequences (vertices, borders, matrices, ...) are
        concatenated with ``*_off`` offset arrays; ``from_arrays`` slices
        them back.  The paper's flat-array layout is thereby also the
        storage format — no pickling of node objects.
        """
        nodes = self.nodes
        empty = np.empty(0, dtype=np.int64)
        verts, verts_off = concat_ragged(
            [n.vertices if n.vertices is not None else empty for n in nodes],
            np.int64,
        )
        borders, borders_off = concat_ragged([n.borders for n in nodes], np.int64)
        cb, cb_off = concat_ragged(
            [n.child_borders if n.child_borders is not None else empty for n in nodes],
            np.int64,
        )
        children, children_off = concat_ragged(
            [np.asarray(n.children, dtype=np.int64) for n in nodes], np.int64
        )
        pip, pip_off = concat_ragged([n.pos_in_parent for n in nodes], np.int64)
        obp, obp_off = concat_ragged([n.own_border_pos for n in nodes], np.int64)
        mats = [_matrix_dense(n.matrix) for n in nodes]
        mat_flat, mat_off = concat_ragged([m.ravel() for m in mats], np.float64)
        mat_shape = np.asarray([m.shape for m in mats], dtype=np.int64)
        return {
            "parent": np.asarray([n.parent for n in nodes], dtype=np.int64),
            "level": np.asarray([n.level for n in nodes], dtype=np.int64),
            "leaf_lo": np.asarray([n.leaf_lo for n in nodes], dtype=np.int64),
            "leaf_hi": np.asarray([n.leaf_hi for n in nodes], dtype=np.int64),
            "children": children,
            "children_off": children_off,
            "vertices": verts,
            "vertices_off": verts_off,
            "borders": borders,
            "borders_off": borders_off,
            "child_borders": cb,
            "child_borders_off": cb_off,
            "pos_in_parent": pip,
            "pos_in_parent_off": pip_off,
            "own_border_pos": obp,
            "own_border_pos_off": obp_off,
            "matrix": mat_flat,
            "matrix_off": mat_off,
            "matrix_shape": mat_shape,
            "leaf_of": self.leaf_of,
            "leaf_index_of": self.leaf_index_of,
            "fanout": np.asarray(self.fanout),
            "tau": np.asarray(self.tau),
            "matrix_backend": np.asarray(self.matrix_backend),
            "build_time": np.asarray(self._build_time),
        }

    @classmethod
    def from_arrays(cls, graph: Graph, arrays: Dict[str, np.ndarray]) -> "GTree":
        """Rehydrate a :meth:`to_arrays` dump without rebuilding.

        ``build_time()`` reports the *original* construction wall-time
        (recorded in the artifact), so preprocessing figures stay honest
        when served from the store.
        """
        self = cls.__new__(cls)
        self.graph = graph
        self.fanout = int(arrays["fanout"])
        self.tau = int(arrays["tau"])
        self.matrix_backend = str(arrays["matrix_backend"])
        self._build_time = float(arrays["build_time"])
        backend = MATRIX_BACKENDS[self.matrix_backend]

        parent = arrays["parent"]
        n_nodes = len(parent)

        def rag(name: str, i: int) -> np.ndarray:
            return ragged_row(arrays[name], arrays[f"{name}_off"], i)

        self.nodes = []
        for i in range(n_nodes):
            node = GTreeNode(i, int(parent[i]), int(arrays["level"][i]))
            node.leaf_lo = int(arrays["leaf_lo"][i])
            node.leaf_hi = int(arrays["leaf_hi"][i])
            node.children = [int(c) for c in rag("children", i)]
            node.borders = rag("borders", i)
            node.pos_in_parent = rag("pos_in_parent", i)
            node.own_border_pos = rag("own_border_pos", i)
            rows, cols = (int(v) for v in arrays["matrix_shape"][i])
            node.matrix = backend(rag("matrix", i).reshape(rows, cols))
            if node.is_leaf:
                node.vertices = rag("vertices", i)
                node.vertex_pos = {int(v): j for j, v in enumerate(node.vertices)}
            else:
                node.child_borders = rag("child_borders", i)
            self.nodes.append(node)
        self.root = 0
        self.leaf_of = np.asarray(arrays["leaf_of"], dtype=np.int64)
        self.leaf_index_of = np.asarray(arrays["leaf_index_of"], dtype=np.int64)
        # Leaf caches are rebuilt lazily on first same-leaf search.  Pass-1
        # matrices and the partition hierarchy are not serialized, so a
        # loaded tree cannot repair in place (apply_weight_deltas raises
        # RepairUnavailable and callers rebuild).
        self._raw = None
        self.partition = None
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
