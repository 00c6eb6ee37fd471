"""Independent correctness oracle: brute-force kNN from scipy Dijkstra.

Shares nothing with ``repro`` but numpy arrays: the caller hands over a
CSR triple (which the benchmark keeps and mutates itself when a workload
applies weight updates), so a bug in the library's graph mutation or
index repair cannot hide behind its own bookkeeping.

The tie rule, written once
--------------------------
An answer of ``(distance, vertex)`` pairs to "k nearest of ``objects``
from ``q``" is right when

1. it has ``min(k, reachable objects)`` entries and no vertex twice;
2. its distances, in order, equal the ``k`` smallest true object
   distances within :data:`REL_TOL` — *not* bit for bit: the methods sum
   the same edge weights in different orders (G-tree min-plus over
   border matrices, hub labels, Dijkstra), which differs from scipy's
   sum in the last one or two ulps (measured 8e-16 relative);
3. every returned vertex is an object whose own true distance equals the
   distance reported for it, within the same tolerance — so vertices may
   differ from the oracle's only inside a distance tie.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Relative tolerance on distances (the repo's own ``verify_knn_result``
#: uses the same value).
REL_TOL = 1e-9

#: Sources per scipy call; bounds the dense distance block to
#: ``CHUNK * V * 8`` bytes so checking never sets the run's peak RSS.
CHUNK = 64

Answer = Sequence[Tuple[float, int]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def check_answer(
    answer: Answer, row: np.ndarray, objects: np.ndarray, k: int
) -> Optional[str]:
    """``None`` if ``answer`` obeys the tie rule, else what is wrong.

    ``row`` holds the true distances from the query vertex to every
    vertex; ``objects`` the object vertex ids.
    """
    truth = np.sort(row[objects])
    truth = truth[np.isfinite(truth)][:k]
    if len(answer) != len(truth):
        return f"{len(answer)} neighbours, expected {len(truth)}"
    vertices = [int(v) for _, v in answer]
    if len(set(vertices)) != len(vertices):
        return "a vertex is returned twice"
    object_set = set(int(o) for o in objects)
    for i, ((d, v), t) in enumerate(zip(answer, truth)):
        if not _close(float(d), float(t)):
            return f"distance {i} is {d!r}, expected {float(t)!r}"
        if int(v) not in object_set:
            return f"vertex {v} is not an object"
        if not _close(float(d), float(row[int(v)])):
            return (
                f"vertex {v} reported at {d!r} but lies at "
                f"{float(row[int(v)])!r}"
            )
    return None


class Oracle:
    """Brute-force kNN over one CSR snapshot and one object set."""

    def __init__(
        self,
        vertex_start: np.ndarray,
        edge_target: np.ndarray,
        edge_weight: np.ndarray,
        objects: Sequence[int],
    ) -> None:
        n = len(vertex_start) - 1
        self.matrix = csr_matrix(
            (
                np.asarray(edge_weight, dtype=np.float64),
                np.asarray(edge_target, dtype=np.int64),
                np.asarray(vertex_start, dtype=np.int64),
            ),
            shape=(n, n),
        )
        self.objects = np.asarray(sorted(int(o) for o in objects), dtype=np.int64)

    def mismatches(
        self, queries: Sequence[int], answers: Sequence[Answer], k: int
    ) -> List[str]:
        """One message per answer that breaks the tie rule."""
        out: List[str] = []
        queries = [int(q) for q in queries]
        for lo in range(0, len(queries), CHUNK):
            block = queries[lo:lo + CHUNK]
            dist = dijkstra(self.matrix, directed=False, indices=block)
            for j, q in enumerate(block):
                problem = check_answer(answers[lo + j], dist[j], self.objects, k)
                if problem is not None:
                    out.append(f"query {q}: {problem}")
        return out
