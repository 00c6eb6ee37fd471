"""The partition hierarchy G-tree and ROAD are both built on.

Both indexes flatten a :func:`~repro.graph.partition.recursive_partition`
tree into id-addressed nodes, give every node a DFS *leaf interval* (so
subtree membership is two integer compares), find each node's borders,
and precompute a per-node distance matrix bottom-up over a *minigraph*:
the induced subgraph for a leaf, child border cliques plus the original
cross edges between children for an internal node.  After an edge-weight
change the same computation is replayed on the nodes the change can
reach.  This module owns all of that once; an index adds only what it
solves on a minigraph and what it keeps for queries.

**Build is repair.**  A raw edge enters exactly one minigraph directly —
its endpoints' common leaf, else the lowest common ancestor of their
leaves (the one node where they fall in different children) — and
reaches the ancestors of that node only through child matrices.  So
:meth:`PartitionHierarchy.recompute_bottom_up` re-solves a node when it
is a *trigger* or a child's matrix changed bitwise; a build is that
routine with every node a trigger and no previous matrices.  Repair
therefore calls the build's kernels on the build's inputs, which is why
a repaired index is byte-identical to a rebuild on the same partition.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.utils.arrays import concat_ragged, ragged_row

_EMPTY = np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# COO helpers
# ----------------------------------------------------------------------
def dedup_min(rows, cols, data):
    """Concatenate COO batches, collapsing duplicates to their *minimum*.

    scipy's constructors *sum* duplicate entries, which is wrong for
    distance graphs (a raw edge coinciding with a clique edge, or two
    parallel edges, must keep the smaller weight).  Vectorised: sort by
    (row, col), reduce runs.
    """
    rows, cols, data = np.concatenate(rows), np.concatenate(cols), np.concatenate(data)
    if len(rows) == 0:
        return rows, cols, data
    order = np.lexsort((cols, rows))
    r, c, d = rows[order], cols[order], data[order]
    first = np.empty(len(r), dtype=bool)
    first[0] = True
    first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(first)
    return r[starts], c[starts], np.minimum.reduceat(d, starts)


def clique_coo(positions: np.ndarray, matrix: np.ndarray):
    """COO triplets for a distance clique over local ``positions``."""
    nb = len(positions)
    rows = np.repeat(positions, nb)
    cols = np.tile(positions, nb)
    data = np.asarray(matrix, dtype=np.float64).ravel()
    keep = np.isfinite(data) & (rows != cols)
    return rows[keep], cols[keep], data[keep]


def locate(haystack: np.ndarray, needles: np.ndarray):
    """``(pos, found)``: where each needle sits in the duplicate-free
    ``haystack`` (any order), and whether it is there at all."""
    if len(haystack) == 0:
        return np.zeros(len(needles), dtype=np.int64), np.zeros(len(needles), dtype=bool)
    order = np.argsort(haystack)
    loc = np.searchsorted(haystack, needles, sorter=order)
    pos = order[np.minimum(loc, len(haystack) - 1)]
    return pos, haystack[pos] == needles


def pack_matrices(prefix: str, mats: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
    """Per-node 2-D matrices as ``prefix`` / ``_off`` / ``_shape`` arrays."""
    flat, off = concat_ragged([m.ravel() for m in mats], np.float64)
    shape = np.asarray([m.shape for m in mats], dtype=np.int64)
    return {prefix: flat, f"{prefix}_off": off, f"{prefix}_shape": shape}


def unpack_matrix(arrays: Dict[str, np.ndarray], prefix: str, i: int) -> np.ndarray:
    rows, cols = (int(v) for v in arrays[f"{prefix}_shape"][i])
    return ragged_row(arrays[prefix], arrays[f"{prefix}_off"], i).reshape(rows, cols)


# ----------------------------------------------------------------------
# Skeleton
# ----------------------------------------------------------------------
class HierarchyNode:
    """One node of the hierarchy (a subgraph of the road network)."""

    __slots__ = (
        "id", "parent", "children", "level", "leaf_lo", "leaf_hi",
        "vertices", "borders",
    )

    def __init__(self, node_id: int, parent: int, level: int) -> None:
        self.id = node_id
        self.parent = parent
        self.children: List[int] = []
        self.level = level
        self.leaf_lo = 0  # DFS leaf interval [leaf_lo, leaf_hi)
        self.leaf_hi = 0
        self.vertices: Optional[np.ndarray] = None  # leaves only, sorted
        self.borders: np.ndarray = _EMPTY

    @property
    def is_leaf(self) -> bool:
        return not self.children


class PartitionHierarchy:
    """Base of :class:`GTree` and :class:`RoadIndex`.

    Subclasses set ``node_class`` (a :class:`HierarchyNode` subclass with
    their extra slots) and provide ``graph``.  Public attributes:
    ``nodes``, ``root``, ``leaf_of`` (vertex -> leaf node id),
    ``leaf_index_of`` (vertex -> DFS leaf index) and ``partition``.
    """

    node_class = HierarchyNode
    graph: Graph

    def _flatten(self, partition) -> None:
        """Id-addressed nodes, leaf intervals and borders from a
        :class:`~repro.graph.partition.PartitionNode` tree."""
        graph = self.graph
        n = graph.num_vertices
        self.partition = partition
        self.nodes: List = []
        self.root = 0
        self.leaf_of = np.full(n, -1, dtype=np.int64)
        self.leaf_index_of = np.full(n, -1, dtype=np.int64)
        leaves = 0

        def add(pnode, parent_id: int, level: int) -> int:
            nonlocal leaves
            node = self.node_class(len(self.nodes), parent_id, level)
            self.nodes.append(node)
            node.leaf_lo = leaves
            for child in pnode.children:
                node.children.append(add(child, node.id, level + 1))
            if not pnode.children:
                node.vertices = np.sort(np.asarray(pnode.vertices, dtype=np.int64))
                self.leaf_of[node.vertices] = node.id
                self.leaf_index_of[node.vertices] = leaves
                leaves += 1
            node.leaf_hi = leaves
            return node.id

        add(partition, -1, 0)

        # Vertex u is a border of node N iff some neighbour's leaf index
        # falls outside N's interval.  One reduceat per bound over the
        # flat CSR arrays — no per-vertex loop.
        nmin = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        nmax = np.full(n, -1, dtype=np.int64)
        li_all = self.leaf_index_of[graph.edge_target]
        nonempty = np.flatnonzero(np.diff(graph.vertex_start) > 0)
        if len(nonempty):
            seg_starts = graph.vertex_start[nonempty]
            nmin[nonempty] = np.minimum.reduceat(li_all, seg_starts)
            nmax[nonempty] = np.maximum.reduceat(li_all, seg_starts)
        for node in self.nodes:
            verts = self.node_vertices(node)
            mask = (nmin[verts] < node.leaf_lo) | (nmax[verts] >= node.leaf_hi)
            node.borders = verts[mask]

    def node_vertices(self, node) -> np.ndarray:
        """All vertices under ``node``, leaf by leaf in DFS order."""
        if node.is_leaf:
            return node.vertices
        return np.concatenate(
            [self.node_vertices(self.nodes[c]) for c in node.children]
        )

    # -- leaf-interval tests ---------------------------------------------
    def contains(self, node_id: int, vertex: int) -> bool:
        node = self.nodes[node_id]
        return node.leaf_lo <= int(self.leaf_index_of[vertex]) < node.leaf_hi

    def is_ancestor(self, node_id: int, leaf_id: int) -> bool:
        node, leaf = self.nodes[node_id], self.nodes[leaf_id]
        return node.leaf_lo <= leaf.leaf_lo and leaf.leaf_hi <= node.leaf_hi

    def child_towards(self, node_id: int, leaf_id: int) -> int:
        """The child of ``node_id`` whose subtree contains ``leaf_id``."""
        for cid in self.nodes[node_id].children:
            if self.is_ancestor(cid, leaf_id):
                return cid
        raise ValueError(f"node {node_id} is not an ancestor of leaf {leaf_id}")

    # -- minigraphs ------------------------------------------------------
    def induced_triplets(self, vs: np.ndarray):
        """COO triplets, in positions of ``vs``, of the subgraph induced
        by the duplicate-free vertex ids ``vs``.

        Direct CSR-slice gathering — one batch of numpy ops per call, an
        order of magnitude cheaper than scipy's generic fancy indexing
        for the small subgraphs extracted per node.
        """
        graph = self.graph
        starts = graph.vertex_start[vs]
        lens = (graph.vertex_start[vs + 1] - starts).astype(np.int64)
        total = int(lens.sum())
        if total == 0:
            return _EMPTY, _EMPTY, np.empty(0)
        gather = np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(total)
        cols, found = locate(vs, graph.edge_target[gather])
        rows = np.repeat(np.arange(len(vs), dtype=np.int64), lens)
        return rows[found], cols[found], graph.edge_weight[gather][found]

    def minigraph(self, node, border_matrix: Callable):
        """``(size, border_pos, rows, cols, data)`` — the graph a node's
        matrix is solved on, duplicates collapsed to their minimum.

        A leaf's minigraph is its induced subgraph over ``node.vertices``.
        An internal node's is over its children's borders, concatenated
        in child order: one clique per child carrying
        ``border_matrix(child)`` (that child's border-to-border
        distances) plus the original edges between *different* children
        — both endpoints of such an edge are borders of their child.
        ``border_pos`` locates ``node.borders`` in the local numbering.
        """
        if node.is_leaf:
            vs = node.vertices
            r, c, d = self.induced_triplets(vs)
            return (len(vs), np.searchsorted(vs, node.borders), *dedup_min([r], [c], [d]))
        children = [self.nodes[cid] for cid in node.children]
        sizes = [len(child.borders) for child in children]
        cb = np.concatenate([child.borders for child in children])
        child_of_pos = np.repeat(np.arange(len(children)), sizes)
        r, c, d = self.induced_triplets(cb)
        cross = child_of_pos[r] != child_of_pos[c]
        rows, cols, data = [r[cross]], [c[cross]], [d[cross]]
        offsets = np.cumsum([0] + sizes)
        for child, lo, hi in zip(children, offsets[:-1], offsets[1:]):
            cr, cc, cd = clique_coo(np.arange(lo, hi), border_matrix(child))
            rows.append(cr)
            cols.append(cc)
            data.append(cd)
        return (len(cb), locate(cb, node.borders)[0], *dedup_min(rows, cols, data))

    # -- build == repair -------------------------------------------------
    def every_node(self) -> Tuple[Set[int], Set[int]]:
        """The ``(triggers, affected)`` pair of a from-scratch build."""
        ids = set(range(len(self.nodes)))
        return ids, ids

    def repair_plan(
        self, changed: Iterable[Tuple[int, int, float, float]]
    ) -> Tuple[Set[int], Set[int]]:
        """``(triggers, affected)`` for :meth:`Graph.apply_weight_deltas`
        output: per changed edge, the first node up the ``u`` chain that
        also contains ``v`` (the shared leaf or the LCA) is a trigger;
        both endpoint-leaf ancestor chains are affected."""
        triggers: Set[int] = set()
        affected: Set[int] = set()
        for u, v, _old, _new in changed:
            chain = self._ancestor_chain(int(self.leaf_of[int(u)]))
            affected.update(chain, self._ancestor_chain(int(self.leaf_of[int(v)])))
            triggers.add(next(i for i in chain if self.contains(i, int(v))))
        return triggers, affected

    def _ancestor_chain(self, node_id: int) -> List[int]:
        chain: List[int] = []
        while node_id >= 0:
            chain.append(node_id)
            node_id = self.nodes[node_id].parent
        return chain

    def recompute_bottom_up(
        self, triggers: Set[int], affected: Set[int], attr: str, solve: Callable
    ) -> Tuple[int, Set[int]]:
        """Re-solve ``node.<attr> = solve(node)`` deepest level first over
        ``affected``, for triggers and for parents of a node whose matrix
        changed bitwise (``None`` counts as changed).  ``solve`` reads
        the children's current ``attr``.  Returns ``(solves, changed)``."""
        solves = 0
        changed: Set[int] = set()
        for node in sorted((self.nodes[i] for i in affected), key=lambda nd: -nd.level):
            if node.id not in triggers and changed.isdisjoint(node.children):
                continue
            new = solve(node)
            solves += 1
            old = getattr(node, attr)
            if old is None or not np.array_equal(old, new):
                setattr(node, attr, new)
                changed.add(node.id)
        return solves, changed

    # -- serialization ---------------------------------------------------
    def topology_arrays(self) -> Dict[str, np.ndarray]:
        """The skeleton half of ``to_arrays``.  Ragged per-node sequences
        are concatenated with ``*_off`` offset arrays (the paper's
        Section 6.2 flat layout is also the storage format)."""
        nodes = self.nodes
        out = {
            name: np.asarray([getattr(n, name) for n in nodes], dtype=np.int64)
            for name in ("parent", "level", "leaf_lo", "leaf_hi")
        }
        ragged = {
            "children": [np.asarray(n.children, dtype=np.int64) for n in nodes],
            "vertices": [n.vertices if n.is_leaf else _EMPTY for n in nodes],
            "borders": [n.borders for n in nodes],
        }
        for name, rows in ragged.items():
            out[name], out[f"{name}_off"] = concat_ragged(rows, np.int64)
        out["leaf_of"] = self.leaf_of
        out["leaf_index_of"] = self.leaf_index_of
        return out

    @classmethod
    def _from_topology(cls, graph: Graph, arrays: Dict[str, np.ndarray]):
        """A bare instance holding the :meth:`topology_arrays` half.  The
        partition tree is not serialized, so ``partition`` is ``None``
        and rebuild-equality pinning is unavailable on a loaded index."""
        self = cls.__new__(cls)
        self.graph = graph
        self.nodes = []
        for i, parent in enumerate(arrays["parent"]):
            node = cls.node_class(i, int(parent), int(arrays["level"][i]))
            node.leaf_lo = int(arrays["leaf_lo"][i])
            node.leaf_hi = int(arrays["leaf_hi"][i])
            node.children = ragged_row(
                arrays["children"], arrays["children_off"], i
            ).tolist()
            node.borders = ragged_row(arrays["borders"], arrays["borders_off"], i)
            if node.is_leaf:
                node.vertices = ragged_row(
                    arrays["vertices"], arrays["vertices_off"], i
                )
            self.nodes.append(node)
        self.root = 0
        self.leaf_of = np.asarray(arrays["leaf_of"], dtype=np.int64)
        self.leaf_index_of = np.asarray(arrays["leaf_index_of"], dtype=np.int64)
        self.partition = None
        return self
