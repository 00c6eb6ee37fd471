"""IER: Incremental Euclidean Restriction (Papadias et al., VLDB 2003).

IER retrieves candidates in Euclidean order from an R-tree and computes
their network distances with a pluggable oracle, stopping when the next
Euclidean lower bound cannot beat the current k-th candidate
(Section 3.2).  Section 5's revival is exactly this parameterisation: the
original IER-Dijk, and IER over CH, TNR, hub labels ("IER-PHL") and
materialized G-tree ("IER-Gt" / MGtree).

For travel-time weights the Euclidean distance is scaled by the network's
maximum speed ``S`` so it remains a valid lower bound (Section 7.5) — the
looser bound produces the extra "false hits" the travel-time experiments
observe.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.graph.graph import Graph
from repro.knn.base import KNNAlgorithm, KNNResult
from repro.spatial.rtree import RTree
from repro.utils.counters import Counters, NULL_COUNTERS
from repro.utils.pqueue import BinaryHeap

INF = float("inf")


class IER(KNNAlgorithm):
    """Incremental Euclidean Restriction over a distance oracle.

    Parameters
    ----------
    graph:
        Road network.
    objects:
        Object vertex ids; indexed in an R-tree by coordinates.
    oracle:
        Anything with ``distance(source, target) -> float``; oracles with
        per-source state (MGtree) additionally get ``begin_source`` calls.
    rtree_node_capacity:
        R-tree fanout (the object-index parameter studied in Section 7.4).
    """

    def __init__(
        self,
        graph: Graph,
        objects: Sequence[int],
        oracle,
        rtree_node_capacity: int = 16,
    ) -> None:
        self.graph = graph
        self.oracle = oracle
        self.objects = [int(o) for o in objects]
        self.rtree = RTree(
            [graph.x[o] for o in self.objects],
            [graph.y[o] for o in self.objects],
            items=self.objects,
            node_capacity=rtree_node_capacity,
        )
        self.name = f"ier-{getattr(oracle, 'name', 'oracle')}"

    def update_objects(
        self, added: Sequence[int], removed: Sequence[int]
    ) -> None:
        """Incrementally maintain the object R-tree (live POI deltas)."""
        graph = self.graph
        for o in removed:
            o = int(o)
            self.rtree.remove(float(graph.x[o]), float(graph.y[o]), o)
            self.objects.remove(o)
        for o in added:
            o = int(o)
            self.rtree.insert(float(graph.x[o]), float(graph.y[o]), o)
            self.objects.append(o)

    def knn(
        self, query: int, k: int, counters: Counters = NULL_COUNTERS
    ) -> KNNResult:
        graph = self.graph
        speed = graph.max_speed()
        begin = getattr(self.oracle, "begin_source", None)
        if begin is not None:
            begin(query)
        cursor = self.rtree.nearest_cursor(float(graph.x[query]), float(graph.y[query]))
        # k best candidates on negated network distance: furthest on top.
        candidates = BinaryHeap()
        d_k = INF
        while True:
            nxt = cursor.next()
            if nxt is None:
                break
            de, obj = nxt
            lower_bound = de / speed
            if len(candidates) >= k and lower_bound >= d_k:
                # The next Euclidean NN already cannot beat the k-th
                # candidate; neither can any later one.  Terminate.
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


def euclidean_knn_brute_force(
    graph: Graph, objects: Sequence[int], query: int, k: int
) -> List[Tuple[float, int]]:
    """Brute-force Euclidean kNN (testing reference for the R-tree path)."""
    qx, qy = float(graph.x[query]), float(graph.y[query])
    scored = sorted(
        (math.hypot(graph.x[o] - qx, graph.y[o] - qy), int(o)) for o in objects
    )
    return scored[:k]
