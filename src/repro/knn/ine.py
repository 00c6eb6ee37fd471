"""INE: Incremental Network Expansion (Papadias et al., VLDB 2003).

A Dijkstra-style expansion from the query vertex that reports objects in
the order they are settled, stopping at the k-th (Section 3.1).  Its cost
is proportional to the number of vertices closer than the k-th object,
which is why it wins at high density and loses badly at low density.

The expansion runs as a C-level whole-frontier kernel
(:func:`repro.kernels.sssp.nearest_objects`) with an expanding radius
limit — one rung past the paper's Figure 7 ladder, whose four rungs
live in :class:`repro.reference.ReferenceINE` and return byte-identical
answers with the same ``expand_settled`` counter.
"""

from __future__ import annotations

from typing import Sequence, Set

import numpy as np

from repro.graph.graph import Graph
from repro.kernels.sssp import nearest_objects
from repro.knn.base import KNNAlgorithm, KNNResult
from repro.utils.counters import Counters, NULL_COUNTERS


class INE(KNNAlgorithm):
    """Incremental Network Expansion kNN."""

    name = "ine"

    def __init__(self, graph: Graph, objects: Sequence[int]) -> None:
        self.graph = graph
        self.object_set: Set[int] = set(int(o) for o in objects)
        self._sync()

    def _sync(self) -> None:
        """The sorted object-id array is all the state the kernel needs."""
        self._objects_arr = np.sort(np.fromiter(
            self.object_set, dtype=np.int64, count=len(self.object_set)
        ))

    def update_objects(
        self, added: Sequence[int], removed: Sequence[int]
    ) -> None:
        """Apply a net object-set change in place (live POI deltas)."""
        self.object_set.difference_update(int(o) for o in removed)
        self.object_set.update(int(o) for o in added)
        self._sync()

    def knn(
        self, query: int, k: int, counters: Counters = NULL_COUNTERS
    ) -> KNNResult:
        results, settled = nearest_objects(
            self.graph, self._objects_arr, query, k
        )
        if counters.enabled:
            counters.add("expand_settled", int(np.count_nonzero(settled)))
        return results


def ine_knn(graph: Graph, objects: Sequence[int], query: int, k: int) -> KNNResult:
    """One-shot INE — the brute-force ground truth used by tests."""
    return INE(graph, objects).knn(query, k)
