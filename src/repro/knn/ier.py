"""IER: Incremental Euclidean Restriction (Papadias et al., VLDB 2003).

IER retrieves candidates in Euclidean order from an R-tree and computes
their network distances with a pluggable oracle, stopping when the next
Euclidean lower bound cannot beat the current k-th candidate
(Section 3.2).  Section 5's revival is exactly this parameterisation: the
original IER-Dijk, and IER over CH, TNR, hub labels ("IER-PHL") and
materialized G-tree ("IER-Gt" / MGtree).

Verification runs in rounds, each one ``oracle.distances(source,
targets)`` call: first the k Euclidean nearest, then every further
candidate whose lower bound beats the current k-th distance (two rounds
in all).  The returned distances are replayed through the textbook
one-candidate-at-a-time accept/replace/stop loop in Euclidean order, so
answers, ``verify_network_computations``, ``verify_false_hits`` and
``euclid_candidate_replacements`` are those of that loop
(:class:`repro.reference.ReferenceIER`); targets a round computed after
the loop's stop are counted as ``verify_past_stop``.  An oracle
that answers a batch one target at a time gains nothing from it, so for
such an oracle a round holds only candidates the loop surely verifies
(none past the stop, a few more rounds).

For travel-time weights the Euclidean distance is scaled by the network's
maximum speed ``S`` so it remains a valid lower bound (Section 7.5) — the
looser bound produces the extra "false hits" the travel-time experiments
observe.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import List, Sequence, Tuple

from repro.graph.graph import Graph
from repro.knn.base import KNNAlgorithm, KNNResult
from repro.spatial.rtree import RTree
from repro.utils.counters import Counters, NULL_COUNTERS

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
        Anything with ``distances(source, targets) -> ndarray`` (float64,
        one entry per target, in order; ``inf`` when unreachable).  An
        oracle whose batch costs one search per target (MGtree) sets
        ``per_target = True`` and is then never sent a candidate the
        one-at-a-time loop would not verify.
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
        self.per_target = getattr(oracle, "per_target", False)

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
        if k <= 0:
            return []
        graph = self.graph
        speed = graph.max_speed()
        cursor = self.rtree.nearest_cursor(float(graph.x[query]), float(graph.y[query]))
        # The k best candidates as (distance, -arrival, vertex), ascending:
        # the last is the k-th distance and the one a better candidate
        # evicts (on a tie the earliest arrival, as in a FIFO max-heap).
        kept: List[Tuple[float, int, int]] = []
        d_k = INF
        arrivals = 0
        # Round one: the k Euclidean nearest, all of which are verified.
        batch: List[Tuple[float, int]] = []
        nxt = cursor.next()
        while nxt is not None and len(batch) < k:
            batch.append((nxt[0] / speed, nxt[1]))
            nxt = cursor.next()
        while batch:
            distances = self.oracle.distances(query, [obj for _, obj in batch])
            for i, ((lower_bound, obj), d) in enumerate(
                zip(batch, distances.tolist())
            ):
                if len(kept) >= k and lower_bound >= d_k:
                    # This Euclidean NN already cannot beat the k-th
                    # candidate; neither can any later one.  Terminate.
                    counters.add("verify_past_stop", len(batch) - i)
                    break
                counters.add("verify_network_computations")
                arrivals += 1
                if len(kept) < k:
                    insort(kept, (d, -arrivals, obj))
                    if len(kept) == k:
                        d_k = kept[-1][0]
                elif d < d_k:
                    kept.pop()
                    insort(kept, (d, -arrivals, obj))
                    d_k = kept[-1][0]
                    counters.add("euclid_candidate_replacements")
                else:
                    counters.add("verify_false_hits")
            # Later rounds: the candidates whose bound beats d_k now.  d_k
            # only shrinks, so the first one that fails ends the search.
            # After i more verifications d_k is still at least the
            # (k - i)-th distance kept now, so a per-target oracle is sent
            # only candidates below that: it never runs past the stop.
            batch = []
            while nxt is not None:
                lower_bound = nxt[0] / speed
                if lower_bound >= d_k:
                    break
                if self.per_target and (
                    len(batch) == k or lower_bound >= kept[-1 - len(batch)][0]
                ):
                    break
                batch.append((lower_bound, nxt[1]))
                nxt = cursor.next()
        return self._finalise([(d, obj) for d, _, obj in kept], k)


def euclidean_knn_brute_force(
    graph: Graph, objects: Sequence[int], query: int, k: int
) -> List[Tuple[float, int]]:
    """Brute-force Euclidean kNN (testing reference for the R-tree path)."""
    qx, qy = float(graph.x[query]), float(graph.y[query])
    scored = sorted(
        (math.hypot(graph.x[o] - qx, graph.y[o] - qy), int(o)) for o in objects
    )
    return scored[:k]
