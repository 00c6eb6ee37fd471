"""Multilevel graph partitioning shared by G-tree and ROAD.

Both indexes recursively partition the road network with fanout ``f``
(Section 3.4/3.5).  The paper uses the same multilevel scheme [18]
(coarsen / initial partition / refine, i.e. Metis-style) for both methods
so their hierarchies are comparable; we do the same:

1. **Coarsening** — heavy-edge matching contracts matched vertex pairs
   until the graph is small.
2. **Initial bisection** — BFS region growing from a peripheral vertex
   until half the vertex weight is claimed.
3. **Refinement** — boundary Fiedler/Kernighan–Lin style passes (a
   simplified FM: move the boundary vertex with best gain, with balance
   constraints) at every uncoarsening level.

f-way partitions are obtained by recursive (weighted) bisection, which is
what multilevel tools do for small fanouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph

Adjacency = List[List[Tuple[int, float]]]


def _induced_adjacency(graph: Graph, vertices: Sequence[int]) -> Adjacency:
    """Adjacency of the subgraph induced by ``vertices`` with local ids."""
    local = {int(v): i for i, v in enumerate(vertices)}
    adj: Adjacency = [[] for _ in vertices]
    for v, i in local.items():
        targets, weights = graph.neighbor_slice(v)
        for t, w in zip(targets, weights):
            j = local.get(int(t))
            if j is not None:
                adj[i].append((j, float(w)))
    return adj


def _coarsen(
    adj: Adjacency, node_weight: List[int], rng: np.random.Generator
) -> Tuple[Adjacency, List[int], List[int]]:
    """One heavy-edge-matching coarsening pass.

    Returns (coarse adjacency, coarse node weights, fine->coarse map).
    """
    n = len(adj)
    match = [-1] * n
    order = rng.permutation(n)
    for u in order:
        if match[u] != -1:
            continue
        best, best_w = -1, -1.0
        for v, w in adj[u]:
            if match[v] == -1 and v != u and w > best_w:
                best, best_w = v, w
        if best != -1:
            match[u] = best
            match[best] = u
        else:
            match[u] = u
    coarse_of = [-1] * n
    next_id = 0
    for u in range(n):
        if coarse_of[u] == -1:
            coarse_of[u] = next_id
            if match[u] != u:
                coarse_of[match[u]] = next_id
            next_id += 1
    coarse_weight = [0] * next_id
    for u in range(n):
        coarse_weight[coarse_of[u]] += node_weight[u]
    edge_accum: List[Dict[int, float]] = [dict() for _ in range(next_id)]
    for u in range(n):
        cu = coarse_of[u]
        for v, w in adj[u]:
            cv = coarse_of[v]
            if cu != cv:
                edge_accum[cu][cv] = edge_accum[cu].get(cv, 0.0) + w
    coarse_adj: Adjacency = [list(d.items()) for d in edge_accum]
    return coarse_adj, coarse_weight, coarse_of


def _initial_bisection(
    adj: Adjacency,
    node_weight: List[int],
    target_weight: int,
    rng: np.random.Generator,
) -> List[int]:
    """Grow part 0 by BFS from a peripheral vertex until target weight."""
    n = len(adj)
    side = [1] * n
    if n == 0:
        return side
    # Peripheral start: BFS from a random vertex, take the last reached.
    start = int(rng.integers(n))
    seen = [False] * n
    queue = [start]
    seen[start] = True
    last = start
    while queue:
        nxt: List[int] = []
        for u in queue:
            last = u
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    nxt.append(v)
        queue = nxt

    grown = 0
    seen = [False] * n
    frontier = [last]
    seen[last] = True
    while frontier and grown < target_weight:
        nxt = []
        for u in frontier:
            if grown >= target_weight:
                break
            side[u] = 0
            grown += node_weight[u]
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    nxt.append(v)
        frontier = nxt
    if grown < target_weight:
        # Disconnected: claim arbitrary remaining vertices.
        for u in range(n):
            if grown >= target_weight:
                break
            if side[u] == 1:
                side[u] = 0
                grown += node_weight[u]
    return side


def _refine(
    adj: Adjacency,
    node_weight: List[int],
    side: List[int],
    target_weight: int,
    passes: int = 4,
    imbalance: float = 0.1,
) -> None:
    """Boundary FM refinement: greedily move best-gain boundary vertices."""
    n = len(adj)
    total = sum(node_weight)
    weight0 = sum(w for u, w in enumerate(node_weight) if side[u] == 0)
    lo = int(target_weight * (1 - imbalance))
    hi = int(target_weight * (1 + imbalance)) + 1

    for _ in range(passes):
        moved_any = False
        # Gain of moving u to the other side: (cut edges) - (internal edges).
        gains: List[Tuple[float, int]] = []
        for u in range(n):
            external = internal = 0.0
            for v, w in adj[u]:
                if side[v] != side[u]:
                    external += w
                else:
                    internal += w
            if external > 0:
                gains.append((external - internal, u))
        gains.sort(reverse=True)
        for gain, u in gains:
            if gain <= 0:
                break
            if side[u] == 0:
                new_weight0 = weight0 - node_weight[u]
            else:
                new_weight0 = weight0 + node_weight[u]
            if not (lo <= new_weight0 <= hi):
                continue
            side[u] = 1 - side[u]
            weight0 = new_weight0
            moved_any = True
        if not moved_any:
            break


def _bisect_local(
    adj: Adjacency,
    node_weight: List[int],
    fraction: float,
    rng: np.random.Generator,
    coarsen_threshold: int = 64,
) -> List[int]:
    """Multilevel weighted bisection of a local-id subgraph.

    Returns a side label (0/1) per local vertex; side 0 receives roughly
    ``fraction`` of the total vertex weight.
    """
    total = sum(node_weight)
    target = int(round(total * fraction))
    if len(adj) <= coarsen_threshold:
        side = _initial_bisection(adj, node_weight, target, rng)
        _refine(adj, node_weight, side, target)
        return side
    coarse_adj, coarse_weight, coarse_of = _coarsen(adj, node_weight, rng)
    if len(coarse_adj) >= len(adj):  # matching made no progress
        side = _initial_bisection(adj, node_weight, target, rng)
        _refine(adj, node_weight, side, target)
        return side
    coarse_side = _bisect_local(coarse_adj, coarse_weight, fraction, rng)
    side = [coarse_side[coarse_of[u]] for u in range(len(adj))]
    _refine(adj, node_weight, side, target)
    return side


def _geometric_bisect(
    graph: Graph, vs: np.ndarray, fraction: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Median-cut bisection on the wider coordinate axis (vectorised).

    The G-tree build's partitioner: road networks are embedded planar
    graphs, so cutting at the weighted median of the wider axis yields
    cuts whose border counts match the multilevel partitioner's (measured
    on the synthetic suite) at a tiny fraction of its cost — every step
    is one ``argpartition``, no per-edge Python work.  Exactly balanced
    by construction.
    """
    px, py = graph.x[vs], graph.y[vs]
    axis = px if np.ptp(px) >= np.ptp(py) else py
    k = max(1, min(len(vs) - 1, int(round(len(vs) * fraction))))
    idx = np.argpartition(axis, k)
    return vs[idx[:k]], vs[idx[k:]]


def partition_graph(
    graph: Graph,
    vertices: Optional[Sequence[int]] = None,
    fanout: int = 4,
    seed: int = 0,
    method: str = "multilevel",
) -> List[np.ndarray]:
    """Partition (a subgraph of) ``graph`` into ``fanout`` balanced parts.

    Returns a list of ``fanout`` arrays of global vertex ids.  Parts are
    balanced within ~10% and the partitioner minimises cut edges, which is
    what keeps G-tree/ROAD border sets small.

    ``method`` selects the bisection kernel: ``"multilevel"`` (the
    coarsen/grow/refine scheme above, ROAD's) or ``"geometric"``
    (vectorised median cuts, used by the G-tree build).
    """
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    if method not in ("multilevel", "geometric"):
        raise ValueError(f"unknown partition method {method!r}")
    if vertices is None:
        vertices = np.arange(graph.num_vertices)
    vertices = np.asarray(vertices, dtype=np.int64)
    rng = np.random.default_rng(seed)

    def split(vs: np.ndarray, parts: int) -> List[np.ndarray]:
        if parts == 1 or len(vs) <= 1:
            out = [vs]
            out.extend(np.empty(0, dtype=np.int64) for _ in range(parts - 1))
            return out
        left_parts = parts // 2
        fraction = left_parts / parts
        if method == "geometric":
            left, right = _geometric_bisect(graph, vs, fraction)
        else:
            adj = _induced_adjacency(graph, vs)
            side = _bisect_local(adj, [1] * len(vs), fraction, rng)
            side_arr = np.asarray(side)
            left = vs[side_arr == 0]
            right = vs[side_arr == 1]
        if len(left) == 0 or len(right) == 0:
            # Degenerate cut: fall back to an arbitrary balanced split.
            half = max(1, int(len(vs) * fraction))
            left, right = vs[:half], vs[half:]
        return split(left, left_parts) + split(right, parts - left_parts)

    return split(vertices, fanout)


@dataclass
class PartitionNode:
    """A node in a recursive partition hierarchy.

    ``vertices`` are global vertex ids of the subgraph; leaves have no
    children.  Used as the common skeleton for G-tree and ROAD.
    """

    vertices: np.ndarray
    children: List["PartitionNode"] = field(default_factory=list)
    level: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> List["PartitionNode"]:
        if self.is_leaf:
            return [self]
        out: List[PartitionNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out


def recursive_partition(
    graph: Graph,
    fanout: int = 4,
    max_leaf_size: Optional[int] = None,
    max_levels: Optional[int] = None,
    seed: int = 0,
    method: str = "multilevel",
) -> PartitionNode:
    """Recursively partition ``graph`` into a hierarchy.

    Stops splitting a node when it has at most ``max_leaf_size`` vertices
    (G-tree's leaf capacity tau) or when ``max_levels`` levels below the
    root have been created (ROAD's level parameter l).  At least one of the
    two stopping criteria must be given.  ``method`` picks the bisection
    kernel (see :func:`partition_graph`).
    """
    if max_leaf_size is None and max_levels is None:
        raise ValueError("provide max_leaf_size and/or max_levels")

    def build(vs: np.ndarray, level: int) -> PartitionNode:
        node = PartitionNode(vertices=vs, level=level)
        done_by_size = max_leaf_size is not None and len(vs) <= max_leaf_size
        done_by_level = max_levels is not None and level >= max_levels
        if done_by_size or done_by_level or len(vs) <= fanout:
            return node
        parts = partition_graph(
            graph, vs, fanout, seed=seed + level * 997 + len(vs), method=method
        )
        parts = [p for p in parts if len(p) > 0]
        if len(parts) <= 1:
            return node
        node.children = [build(p, level + 1) for p in parts]
        return node

    return build(np.arange(graph.num_vertices, dtype=np.int64), 0)
