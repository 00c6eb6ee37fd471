"""ROAD kNN search (Algorithms 5 and 6) on the INE kernel.

On settling a vertex, ROAD's expansion bypasses the shallowest
object-free Rnet the vertex borders: it relaxes that Rnet's shortcuts
plus its raw edges leaving the Rnet, or, with no such Rnet, all its raw
edges — as in INE.  Which edges a vertex relaxes thus depends only on the
vertex and the object set, never on the query, so :class:`RoadKNN`
builds that directed graph once per object set as a CSR (the *overlay*)
and searches it with :func:`repro.kernels.sssp.nearest_objects`.
Shortcuts to visited borders are never relaxed (the Appendix A.3
improvement is implicit in Dijkstra).  The per-settle loop lives in
:class:`repro.reference.ReferenceRoadKNN`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from repro.index.road import AssociationDirectory, RoadIndex
from repro.kernels.sssp import nearest_objects
from repro.knn.base import KNNAlgorithm, KNNResult
from repro.utils.counters import Counters, NULL_COUNTERS


class Overlay(NamedTuple):
    """What a query reads for one object set, swapped in as one."""

    matrix: csr_matrix  # the overlay graph
    objects: np.ndarray  # sorted unique object vertices
    bypassed: np.ndarray  # per vertex: interior size of the Rnet it bypasses


def build_overlay(road: RoadIndex, ad: AssociationDirectory) -> Overlay:
    """The overlay for ``ad``'s objects over ``road``'s current shortcut
    matrices and the graph's current weights."""
    graph, rnets, n = road.graph, road.rnets, road.graph.num_vertices
    # bypass[u]: the shallowest object-free Rnet u borders, else -1.  Node
    # ids are a DFS preorder, so in reverse every Rnet precedes its
    # ancestors and the shallowest assignment lands last.
    free = [
        node for node in reversed(rnets)
        if node.id != road.root and not ad.rnet_has_object(node.id)
    ]
    bypass = np.full(n, -1, dtype=np.int64)
    for node in free:
        bypass[node.borders] = node.id
    # Raw edges, minus a bypassing vertex's edges into its Rnet (index -1
    # reads the appended empty leaf interval).
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.vertex_start))
    lo, hi = (np.asarray([getattr(nd, a) for nd in rnets] + [0]) for a in ("leaf_lo", "leaf_hi"))
    li, via = road.leaf_index_of[graph.edge_target], bypass[src]
    keep = (li < lo[via]) | (li >= hi[via])
    rows, cols, data = [src[keep]], [graph.edge_target[keep]], [graph.edge_weight[keep]]
    # Each bypassing border's shortcut row (finite, off the diagonal).
    for node in free:
        mine = np.flatnonzero(bypass[node.borders] == node.id)
        block = node.shortcut_matrix[mine]
        finite = np.isfinite(block)
        finite[np.arange(len(mine)), mine] = False
        r, c = np.nonzero(finite)
        rows.append(node.borders[mine[r]])
        cols.append(node.borders[c])
        data.append(block[r, c])
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    # (data, indices, indptr) keeps parallel edges apart; COO would sum them.
    matrix = csr_matrix(
        (np.concatenate(data)[order], np.concatenate(cols)[order], indptr), shape=(n, n)
    )
    interior = np.asarray([nd.interior_size for nd in rnets] + [0], dtype=np.int64)
    return Overlay(matrix, np.unique(ad.objects), interior[bypass])


class RoadKNN(KNNAlgorithm):
    """kNN driver over a :class:`RoadIndex` and Association Directory.

    The overlay snapshots the shortcut matrices and weights at
    construction; the engine drops its instances after a weight batch.
    """

    name = "road"

    def __init__(
        self,
        road: RoadIndex,
        objects: Optional[Sequence[int]] = None,
        directory: Optional[AssociationDirectory] = None,
    ) -> None:
        if directory is None:
            if objects is None:
                raise ValueError("provide objects or an association directory")
            directory = AssociationDirectory(road, objects)
        self.road = road
        self.ad = directory
        self.overlay = build_overlay(road, directory)

    def update_objects(
        self, added: Sequence[int], removed: Sequence[int]
    ) -> None:
        """Maintain the association directory and swap in the new overlay."""
        for o in removed:
            self.ad.remove_object(int(o))
        for o in added:
            self.ad.add_object(int(o))
        self.overlay = build_overlay(self.road, self.ad)

    def knn(
        self, query: int, k: int, counters: Counters = NULL_COUNTERS
    ) -> KNNResult:
        overlay = self.overlay
        results, settled = nearest_objects(
            self.road.graph, overlay.objects, query, k, overlay.matrix
        )
        if counters.enabled:
            counters.add("expand_settled", int(np.count_nonzero(settled)))
            counters.add("expand_bypassed", int(overlay.bypassed[settled].sum()))
        return results
