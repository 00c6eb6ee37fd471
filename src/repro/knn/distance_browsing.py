"""Distance Browsing kNN over the SILC index (Samet et al., SIGMOD 2008).

Candidate objects carry a network-distance interval [lb, ub] derived from
SILC's per-block lambda ratios; a best-first queue keyed by lb repeatedly
*refines* the most promising candidate by stepping one hop (or one
degree-2 chain) along its shortest path, until candidates are confirmed in
exact-distance order.  ``Dk`` — the k-th smallest known upper bound —
prunes both candidate insertion and refinement, which is DisBrw's
improvement over the original SILC kNN.

Two candidate generators, as in the paper:

* **DB-ENN** (Appendix A.1.1, Algorithm 2; the paper's improved variant
  and our default): incremental Euclidean NNs from an R-tree, suspended
  and resumed against ``Front(Q)``.
* **Object Hierarchy** (the original): a Morton-space quadtree over the
  object set whose blocks are visited best-first using SILC block bounds.

Termination note: the paper's Algorithm 1 breaks when the dequeued
element's *upper* bound reaches Dk and documents several edge-case fixes
around that rule.  We use the provably sound variant — candidates are
emitted in confirmed exact order and dropped only when their *lower*
bound exceeds Dk — which computes identical result sets while keeping the
same refinement-dominated cost profile.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.index.silc import SILCIndex
from repro.knn.base import KNNAlgorithm, KNNResult
from repro.spatial.rtree import RTree
from repro.utils.counters import Counters, NULL_COUNTERS
from repro.utils.pqueue import BinaryHeap

INF = float("inf")


class _KthUpperBound:
    """Tracks Dk: the k-th smallest upper bound over distinct objects."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.best: Dict[int, float] = {}
        self.dk = INF

    def offer(self, obj: int, ub: float) -> None:
        prev = self.best.get(obj)
        if prev is not None and prev <= ub:
            return
        self.best[obj] = ub
        if len(self.best) >= self.k:
            values = sorted(self.best.values())
            self.dk = values[self.k - 1]

    def offer_block(self, count: int, ub: float) -> None:
        """A region with ``count`` objects all at distance <= ub."""
        if count >= self.k and ub < self.dk:
            self.dk = ub


class _ObjectHierarchy:
    """Morton-space quadtree over an object set (the original generator)."""

    __slots__ = ("children", "objects", "count", "idx_lo", "idx_hi")

    def __init__(self) -> None:
        self.children: List["_ObjectHierarchy"] = []
        self.objects: List[int] = []
        self.count = 0
        self.idx_lo = 0
        self.idx_hi = 0

    @classmethod
    def build(
        cls,
        silc: SILCIndex,
        objects: Sequence[int],
        leaf_capacity: int = 32,
    ) -> "_ObjectHierarchy":
        codes_sorted = silc._codes_sorted
        positions = sorted(
            (silc.morton_position(int(o)), int(o)) for o in objects
        )
        total_bits = silc.grid_bits

        def make(code_lo: int, size_bits: int, members) -> "_ObjectHierarchy":
            node = cls()
            node.count = len(members)
            lo_code = code_lo
            hi_code = code_lo + (1 << (2 * size_bits))
            node.idx_lo = int(np.searchsorted(codes_sorted, lo_code, side="left"))
            node.idx_hi = int(np.searchsorted(codes_sorted, hi_code, side="left"))
            if len(members) <= leaf_capacity or size_bits == 0:
                node.objects = [obj for _, obj in members]
                return node
            quarter = 1 << (2 * (size_bits - 1))
            buckets = [[], [], [], []]
            for pos, obj in members:
                code = int(codes_sorted[pos])
                buckets[(code - code_lo) // quarter].append((pos, obj))
            for q, bucket in enumerate(buckets):
                if bucket:
                    node.children.append(
                        make(code_lo + q * quarter, size_bits - 1, bucket)
                    )
            return node

        return make(0, total_bits, positions)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class DistanceBrowsing(KNNAlgorithm):
    """DisBrw kNN.

    Parameters
    ----------
    silc:
        The SILC index of the road network.
    objects:
        Object vertex ids.
    candidate_source:
        ``"enn"`` (DB-ENN; default) or ``"hierarchy"`` (original OH).
    use_chains:
        Degree-2 chain optimisation in Refine (OptDisBrw, Appendix A.1.2).
    """

    def __init__(
        self,
        silc: SILCIndex,
        objects: Sequence[int],
        candidate_source: str = "enn",
        use_chains: bool = True,
        rtree_node_capacity: int = 16,
        oh_leaf_capacity: int = 32,
    ) -> None:
        if candidate_source not in ("enn", "hierarchy"):
            raise ValueError(f"unknown candidate source {candidate_source!r}")
        self.silc = silc
        self.graph: Graph = silc.graph
        self.objects = [int(o) for o in objects]
        self.candidate_source = candidate_source
        self.use_chains = use_chains
        self.name = "disbrw" if candidate_source == "enn" else "disbrw-oh"
        if candidate_source == "enn":
            self.rtree = RTree(
                [self.graph.x[o] for o in self.objects],
                [self.graph.y[o] for o in self.objects],
                items=self.objects,
                node_capacity=rtree_node_capacity,
            )
            self.hierarchy = None
        else:
            self.rtree = None
            self.hierarchy = _ObjectHierarchy.build(
                silc, self.objects, leaf_capacity=oh_leaf_capacity
            )

    # ------------------------------------------------------------------
    def update_objects(
        self, added: Sequence[int], removed: Sequence[int]
    ) -> None:
        """Maintain the DB-ENN R-tree in place (live POI deltas).

        The object-hierarchy variant's Morton quadtree carries packed
        index ranges that a point update cannot repair, so it keeps the
        base behaviour: the engine drops and rebuilds the instance.
        """
        if self.candidate_source != "enn":
            raise NotImplementedError(
                "object-hierarchy candidate source requires a rebuild"
            )
        graph = self.graph
        for o in removed:
            o = int(o)
            self.rtree.remove(float(graph.x[o]), float(graph.y[o]), o)
            self.objects.remove(o)
        for o in added:
            o = int(o)
            self.rtree.insert(float(graph.x[o]), float(graph.y[o]), o)
            self.objects.append(o)

    # ------------------------------------------------------------------
    def knn(
        self, query: int, k: int, counters: Counters = NULL_COUNTERS
    ) -> KNNResult:
        if self.candidate_source == "enn":
            return self._knn_enn(query, k, counters)
        return self._knn_hierarchy(query, k, counters)

    # ------------------------------------------------------------------
    # Shared refinement machinery
    # ------------------------------------------------------------------
    def _push_candidate(
        self,
        queue: BinaryHeap,
        tracker: _KthUpperBound,
        query: int,
        obj: int,
        counters: Counters,
    ) -> None:
        """Initial interval for a new candidate (one block lookup)."""
        if obj == query:
            queue.push(0.0, (obj, query, 0.0, -1, 0.0, 0.0))
            tracker.offer(obj, 0.0)
            return
        lb, ub = self.silc.interval_from(query, obj)
        counters.add("interval_lookups")
        if lb > tracker.dk:
            counters.add("browse_insert_pruned")
            return
        tracker.offer(obj, ub)
        # State: (obj, vn, d_vn, prev, lb, ub)
        queue.push(lb, (obj, query, 0.0, -1, lb, ub))

    def _push_candidates(
        self,
        queue: BinaryHeap,
        tracker: _KthUpperBound,
        query: int,
        objs: Sequence[int],
        counters: Counters,
    ) -> None:
        """Seed a batch of candidates.

        Every interval comes from one vectorised SILC lookup; the exact
        per-candidate accept/prune sequence of :meth:`_push_candidate`
        is then applied — the tracker evolves identically, only the
        interval arithmetic is batched.
        """
        if len(objs) == 0:
            return
        arr = np.asarray([int(o) for o in objs], dtype=np.int64)
        lbs, ubs = self.silc.intervals_from(query, arr)
        for obj, lb, ub in zip(arr.tolist(), lbs.tolist(), ubs.tolist()):
            if obj == query:
                queue.push(0.0, (obj, query, 0.0, -1, 0.0, 0.0))
                tracker.offer(obj, 0.0)
                continue
            counters.add("interval_lookups")
            if lb > tracker.dk:
                counters.add("browse_insert_pruned")
                continue
            tracker.offer(obj, ub)
            queue.push(lb, (obj, query, 0.0, -1, lb, ub))

    def _drain(
        self,
        queue: BinaryHeap,
        tracker: _KthUpperBound,
        results: List[Tuple[float, int]],
        k: int,
        outside_lb,
        counters: Counters,
    ) -> None:
        """Pop/refine until blocked on an outside bound or done.

        ``outside_lb()`` is a lower bound on anything not yet in the queue
        (the next Euclidean NN); a candidate is confirmed (its walk has
        reached the object, so its distance is exact) and emitted only
        when it beats that bound — otherwise the candidate generator must
        catch up first.
        """
        while queue and len(results) < k:
            lb, state = queue.pop()
            obj, vn, d, prev, _, ub = state
            if lb > tracker.dk:
                counters.add("browse_dropped")
                continue
            if vn == obj:  # walk complete: d is the exact distance
                if d <= outside_lb():
                    results.append((d, obj))
                    continue
                queue.push(lb, state)
                return  # let the candidate generator catch up
            vn2, d2, prev2, lb2, ub2 = self.silc.refine(
                vn, d, prev, obj, use_chains=self.use_chains
            )
            counters.add("browse_refinements")
            if ub2 < ub:
                tracker.offer(obj, ub2)
            lb2 = max(lb2, lb)  # intervals only tighten
            ub2 = min(ub2, ub)
            if lb2 <= tracker.dk:
                queue.push(lb2, (obj, vn2, d2, prev2, lb2, ub2))
            else:
                counters.add("browse_dropped")

    # ------------------------------------------------------------------
    # DB-ENN (Algorithm 2)
    # ------------------------------------------------------------------
    def _knn_enn(self, query: int, k: int, counters: Counters) -> KNNResult:
        graph = self.graph
        speed = graph.max_speed()
        cursor = self.rtree.nearest_cursor(
            float(graph.x[query]), float(graph.y[query])
        )
        queue = BinaryHeap()
        tracker = _KthUpperBound(k)
        results: List[Tuple[float, int]] = []
        exhausted = False

        def outside_lb() -> float:
            return INF if exhausted else cursor.peek_distance() / speed

        # Seed with the Euclidean kNNs, then alternate: pull the next
        # Euclidean NN whenever its lower bound beats the queue front.
        seeds: List[int] = []
        for _ in range(k):
            nxt = cursor.next()
            if nxt is None:
                exhausted = True
                break
            seeds.append(nxt[1])
        self._push_candidates(queue, tracker, query, seeds, counters)

        while len(results) < k:
            while not exhausted and (
                cursor.peek_distance() / speed < queue.peek_key()
            ):
                if cursor.peek_distance() / speed > tracker.dk:
                    exhausted = True  # no later candidate can qualify
                    break
                nxt = cursor.next()
                if nxt is None:
                    exhausted = True
                    break
                counters.add("browse_enn_retrieved")
                self._push_candidate(queue, tracker, query, nxt[1], counters)
            if not queue:
                if exhausted:
                    break
                nxt = cursor.next()
                if nxt is None:
                    exhausted = True
                    continue
                self._push_candidate(queue, tracker, query, nxt[1], counters)
                continue
            self._drain(queue, tracker, results, k, outside_lb, counters)
        return self._finalise(results, k)

    # ------------------------------------------------------------------
    # Object Hierarchy variant (Algorithm 1)
    # ------------------------------------------------------------------
    def _knn_hierarchy(self, query: int, k: int, counters: Counters) -> KNNResult:
        silc = self.silc
        queue = BinaryHeap()
        tracker = _KthUpperBound(k)
        results: List[Tuple[float, int]] = []
        # Block entries are ("b", node) pairs; object entries are the
        # 6-tuple refinement states used by DB-ENN.  Both are keyed by
        # valid lower bounds, so an exact candidate popped from the front
        # is confirmed immediately — everything reachable is enqueued.
        queue.push(0.0, ("b", self.hierarchy))
        while queue and len(results) < k:
            lb, entry = queue.pop()
            if entry[0] == "b":
                node: _ObjectHierarchy = entry[1]
                if lb > tracker.dk:
                    counters.add("browse_block_pruned")
                    continue
                if node.is_leaf:
                    self._push_candidates(
                        queue, tracker, query, node.objects, counters
                    )
                else:
                    for child in node.children:
                        clb, cub = silc.region_bounds(
                            query, child.idx_lo, child.idx_hi
                        )
                        counters.add("browse_region_bounds")
                        tracker.offer_block(child.count, cub)
                        if clb <= tracker.dk:
                            queue.push(clb, ("b", child))
                continue
            obj, vn, d, prev, _, ub = entry
            if lb > tracker.dk:
                counters.add("browse_dropped")
                continue
            if vn == obj:
                results.append((d, obj))
                continue
            vn2, d2, prev2, lb2, ub2 = self.silc.refine(
                vn, d, prev, obj, use_chains=self.use_chains
            )
            counters.add("browse_refinements")
            if ub2 < ub:
                tracker.offer(obj, ub2)
            lb2 = max(lb2, lb)
            ub2 = min(ub2, ub)
            if lb2 <= tracker.dk:
                queue.push(lb2, (obj, vn2, d2, prev2, lb2, ub2))
            else:
                counters.add("browse_dropped")
        return self._finalise(results, k)
