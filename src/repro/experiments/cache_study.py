"""Table 3 analogue: cache behaviour of distance-matrix layouts.

The paper profiles 250k queries with ``perf`` and shows the array layout
incurs ~50x fewer cache misses than chained hashing, with quadratic
probing in between (but executing the most instructions).  We reproduce
the experiment with a trace-driven model:

1. run real G-tree kNN queries with a tracing wrapper that records every
   distance-matrix access the assembly performs;
2. for each layout, turn the logical accesses into the byte addresses
   that layout would touch (sequential array cells; bucket + chain node
   for chained hashing; probe sequences for open addressing);
3. replay each address stream through the LRU cache hierarchy in
   :mod:`repro.utils.cachesim`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.experiments.runner import random_queries
from repro.index.gtree import GTree
from repro.knn.gtree_knn import GTreeKNN
from repro.objects import uniform_objects
from repro.utils.cachesim import CacheHierarchy

#: (matrix_id, rows, cols) triples recorded per minplus call.
Trace = List[Tuple[int, np.ndarray, np.ndarray]]


class _TracingMatrix:
    """Wraps an ArrayMatrix, recording logical accesses."""

    def __init__(self, inner, matrix_id: int, trace: Trace) -> None:
        self._inner = inner
        self._id = matrix_id
        self._trace = trace
        self.m = inner.m

    def get(self, i: int, j: int) -> float:
        self._trace.append(
            (self._id, np.asarray([i]), np.asarray([j]))
        )
        return self._inner.get(i, j)

    def minplus(self, prev, rows, cols):
        # Slices are recorded as the index arrays they select.
        nrows, ncols = self.m.shape
        self._trace.append((self._id, np.arange(nrows)[rows], np.arange(ncols)[cols]))
        return self._inner.minplus(prev, rows, cols)

    def size_bytes(self) -> int:
        return self._inner.size_bytes()


def record_matrix_trace(
    graph: Graph,
    num_queries: int = 50,
    k: int = 10,
    density: float = 0.01,
    seed: int = 0,
    gtree: Optional[GTree] = None,
) -> Tuple[Trace, Dict[int, Tuple[int, int]]]:
    """Record the matrix accesses of real kNN queries.

    Returns the trace and each matrix's (rows, cols) shape.
    """
    if gtree is None:
        gtree = GTree(graph, seed=seed)
    trace: Trace = []
    shapes: Dict[int, Tuple[int, int]] = {}
    originals = {}
    for node in gtree.nodes:
        if node.matrix is None:
            continue
        originals[node.id] = node.matrix
        shapes[node.id] = node.matrix.m.shape
        node.matrix = _TracingMatrix(node.matrix, node.id, trace)
    try:
        objects = uniform_objects(graph, density, seed=seed, minimum=k)
        alg = GTreeKNN(gtree, objects)
        for q in random_queries(graph, num_queries, seed):
            alg.knn(int(q), k)
    finally:
        for node in gtree.nodes:
            if node.id in originals:
                node.matrix = originals[node.id]
    return trace, shapes


def _layout_addresses(
    layout: str,
    trace: Trace,
    shapes: Dict[int, Tuple[int, int]],
) -> Tuple[List[int], int]:
    """Byte addresses (and instruction count) a layout touches for a trace."""
    # Allocate matrices back to back per layout.
    base: Dict[int, int] = {}
    offset = 0
    for mid, (rows, cols) in shapes.items():
        base[mid] = offset
        cells = max(rows * cols, 1)
        if layout == "array":
            offset += cells * 8
        elif layout == "chained":
            offset += cells * 16  # bucket array
        else:  # open addressing
            offset += int(cells * 1.5) * 16  # slots at ~0.67 load factor
    heap_base = offset  # chained hashing's out-of-line chain nodes
    heap_span = max(offset * 2, 1 << 16)

    addresses: List[int] = []
    instructions = 0
    for mid, rows, cols in trace:
        nrows, ncols = shapes[mid]
        b = base[mid]
        if layout == "array":
            for r in rows:
                row_off = b + int(r) * ncols * 8
                for c in cols:
                    addresses.append(row_off + int(c) * 8)
                    instructions += 1
        elif layout == "chained":
            cells = max(nrows * ncols, 1)
            for r in rows:
                for c in cols:
                    h = (int(r) * 2654435761 + int(c) * 40503) & 0xFFFFFFFF
                    addresses.append(b + (h % cells) * 16)
                    # chain node allocated elsewhere on the heap
                    h2 = (h * 2246822519 + mid * 3266489917) & 0xFFFFFFFF
                    addresses.append(heap_base + (h2 % heap_span) // 8 * 8)
                    instructions += 4
        else:  # open addressing with quadratic probing
            slots = max(int(nrows * ncols * 1.5), 1)
            for r in rows:
                for c in cols:
                    h = (int(r) * 2654435761 + int(c) * 40503) & 0xFFFFFFFF
                    addresses.append(b + (h % slots) * 16)
                    instructions += 6
                    # ~30% of probes collide and probe again
                    if h % 10 < 3:
                        addresses.append(b + ((h + 1) % slots) * 16)
                        instructions += 4
    return addresses, instructions


def table3_cache_profile(
    graph: Graph,
    num_queries: int = 50,
    k: int = 10,
    density: float = 0.01,
    seed: int = 0,
    gtree: Optional[GTree] = None,
) -> Dict[str, Dict[str, int]]:
    """Instructions and per-level cache misses for the three layouts.

    Returns ``{layout_label: {"INS": ..., "L1": ..., "L2": ..., "L3": ...}}``
    in the paper's Table 3 shape.
    """
    trace, shapes = record_matrix_trace(
        graph, num_queries=num_queries, k=k, density=density, seed=seed,
        gtree=gtree,
    )
    out: Dict[str, Dict[str, int]] = {}
    for layout, label in (
        ("chained", "Chained Hashing"),
        ("open", "Quadratic Probing"),
        ("array", "Array"),
    ):
        addresses, instructions = _layout_addresses(layout, trace, shapes)
        cache = CacheHierarchy()
        stats = cache.replay(addresses)
        out[label] = {
            "INS": instructions,
            "L1": stats["L1_misses"],
            "L2": stats["L2_misses"],
            "L3": stats["L3_misses"],
        }
    return out


def format_table3(profile: Dict[str, Dict[str, int]]) -> str:
    lines = ["== Table 3: cache profile of distance-matrix layouts =="]
    header = f"{'Distance Matrix':22} {'INS':>12} {'L1':>12} {'L2':>12} {'L3':>12}"
    lines.append(header)
    for label, row in profile.items():
        lines.append(
            f"{label:22} {row['INS']:>12,} {row['L1']:>12,} "
            f"{row['L2']:>12,} {row['L3']:>12,}"
        )
    return "\n".join(lines)
