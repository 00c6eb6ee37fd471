"""G-tree kNN search (Algorithm 3) with the improved leaf search
(Algorithm 4, Appendix A.2.1).

The search starts inside the query's leaf, then traverses the G-tree
hierarchy best-first: a priority queue holds G-tree nodes (keyed by the
exact distance to their nearest border — a lower bound for any object
inside) and object vertices (keyed by exact assembled distance).  The
Occurrence List prunes empty subtrees; materialization makes repeated
border-distance assemblies cheap.

``improved_leaf_search=False`` reproduces the original behaviour the paper
ablates in Figure 22: the leaf search computes exact distances to *every*
object in the query leaf regardless of k, instead of stopping at the
first k settled.

Both the hierarchy queue and the leaf search run on
:class:`~repro.utils.pqueue.BinaryHeap` over plain python lists: the
frontiers here are leaf-sized (~200 vertices) and every settle is
observed, which is where lists beat array-native heaps and numpy scalar
indexing (``docs/performance.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.index.gtree import GTree, OccurrenceList
from repro.knn.base import KNNAlgorithm, KNNResult
from repro.utils.counters import Counters, NULL_COUNTERS
from repro.utils.pqueue import BinaryHeap

INF = float("inf")


class GTreeKNN(KNNAlgorithm):
    """kNN driver over a :class:`GTree` and an :class:`OccurrenceList`."""

    name = "gtree"

    def __init__(
        self,
        gtree: GTree,
        objects: Optional[Sequence[int]] = None,
        occurrence_list: Optional[OccurrenceList] = None,
        improved_leaf_search: bool = True,
    ) -> None:
        if occurrence_list is None:
            if objects is None:
                raise ValueError("provide objects or an occurrence list")
            occurrence_list = OccurrenceList(gtree, objects)
        self.gtree = gtree
        self.ol = occurrence_list
        self.improved_leaf_search = improved_leaf_search

    def update_objects(
        self, added: Sequence[int], removed: Sequence[int]
    ) -> None:
        """Incrementally maintain the occurrence list (live POI deltas)."""
        for o in removed:
            self.ol.remove_object(int(o))
        for o in added:
            self.ol.add_object(int(o))

    # ------------------------------------------------------------------
    # Leaf searches
    # ------------------------------------------------------------------
    def _leaf_search_improved(
        self,
        query: int,
        k: int,
        queue: BinaryHeap,
        results: List[Tuple[float, int]],
        counters: Counters,
    ) -> None:
        """Algorithm 4: stop at the first k settled leaf objects.

        Runs Dijkstra over the leaf subgraph augmented with the exact
        border clique; until a border is settled, settled objects are
        global kNNs and go straight to ``results``; afterwards they go to
        the main queue (an outside object could be closer).
        """
        gtree = self.gtree
        leaf = gtree.nodes[int(gtree.leaf_of[query])]
        leaf_objects = set(self.ol.objects_in_leaf(leaf.id))
        if not leaf_objects:
            return
        indptr, indices, data = gtree.leaf_local_lists(leaf)
        border_locals = {leaf.vertex_pos[int(b)] for b in leaf.borders}
        start = leaf.vertex_pos[int(query)]
        n = len(indptr) - 1
        dist = [INF] * n
        visited = [False] * n
        heap = BinaryHeap()
        dist[start] = 0.0
        heap.push(0.0, start)
        targets_found = 0
        border_found = False
        vertices = leaf.vertices
        # The leaf can contribute at most min(k, |leaf objects|) results;
        # stop as soon as they are all accounted for.
        target_bound = min(k, len(leaf_objects))
        while heap and len(results) < k and targets_found < target_bound:
            d, u = heap.pop()
            if visited[u]:
                continue
            visited[u] = True
            counters.add("leaf_settled")
            u_global = int(vertices[u])
            if u_global in leaf_objects:
                targets_found += 1
                if not border_found:
                    results.append((d, u_global))
                else:
                    queue.push(d, ("v", u_global))
            if u in border_locals:
                border_found = True
            for i in range(indptr[u], indptr[u + 1]):
                v = indices[i]
                nd = d + data[i]
                if not visited[v] and nd < dist[v]:
                    dist[v] = nd
                    heap.push(nd, v)

    def _leaf_search_original(
        self,
        query: int,
        k: int,
        queue: BinaryHeap,
        results: List[Tuple[float, int]],
        counters: Counters,
    ) -> None:
        """Pre-improvement leaf search: exact distance to every leaf object."""
        gtree = self.gtree
        leaf = gtree.nodes[int(gtree.leaf_of[query])]
        leaf_objects = self.ol.objects_in_leaf(leaf.id)
        if not leaf_objects:
            return
        sssp = gtree._same_leaf_sssp(query)
        counters.add("leaf_settled", len(sssp))
        for o in leaf_objects:
            queue.push(float(sssp[leaf.vertex_pos[int(o)]]), ("v", int(o)))

    # ------------------------------------------------------------------
    # Main search (Algorithm 3)
    # ------------------------------------------------------------------
    def knn(
        self, query: int, k: int, counters: Counters = NULL_COUNTERS
    ) -> KNNResult:
        gtree = self.gtree
        ol = self.ol
        cache: Dict = {}
        results: List[Tuple[float, int]] = []
        # Entries keyed by distance; items ("v"|"n", id).
        queue = BinaryHeap()

        leaf_id = int(gtree.leaf_of[query])
        if ol.has_objects(leaf_id) or leaf_id in ol.leaf_objects:
            if self.improved_leaf_search:
                self._leaf_search_improved(query, k, queue, results, counters)
            else:
                self._leaf_search_original(query, k, queue, results, counters)
        if len(results) >= k:
            return self._finalise(results, k)

        t_node = leaf_id
        t_min = self._border_min(query, t_node, cache, counters)
        root = gtree.root

        def update_t(current: int) -> Tuple[int, float]:
            """Climb one level; enqueue occupied siblings of the old node."""
            parent = gtree.nodes[current].parent
            for child in ol.children(parent):
                if child == current:
                    continue
                key = self._node_key(query, child, cache, counters)
                queue.push(key, ("n", child))
            return parent, self._border_min(query, parent, cache, counters)

        while len(results) < k and (queue or t_node != root):
            if not queue:
                t_node, t_min = update_t(t_node)
                continue
            d, (kind, ident) = queue.pop()
            if d > t_min and t_node != root:
                queue.push(d, (kind, ident))
                t_node, t_min = update_t(t_node)
                continue
            if kind == "v":
                results.append((d, ident))
            else:
                node = gtree.nodes[ident]
                if node.is_leaf:
                    for o in ol.objects_in_leaf(ident):
                        queue.push(
                            self._object_distance(query, o, cache, counters),
                            ("v", int(o)),
                        )
                else:
                    for child in ol.children(ident):
                        queue.push(
                            self._node_key(query, child, cache, counters),
                            ("n", child),
                        )
        return self._finalise(results, k)

    # ------------------------------------------------------------------
    # Distance helpers
    # ------------------------------------------------------------------
    def _border_min(
        self, query: int, node_id: int, cache: Dict, counters: Counters
    ) -> float:
        node = self.gtree.nodes[node_id]
        if len(node.borders) == 0:
            return INF
        d = self.gtree.distances_to_node_borders(query, node_id, cache, counters)
        return float(d.min())

    def _node_key(
        self, query: int, node_id: int, cache: Dict, counters: Counters
    ) -> float:
        """Queue key for a node: exact distance to its nearest border."""
        return self._border_min(query, node_id, cache, counters)

    def _object_distance(
        self, query: int, obj: int, cache: Dict, counters: Counters
    ) -> float:
        return self.gtree.distance(query, int(obj), cache=cache, counters=counters)
