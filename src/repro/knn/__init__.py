"""kNN query algorithms — the paper's five methods.

* :class:`INE` — Incremental Network Expansion (Dijkstra-style).
* :class:`IER` — Incremental Euclidean Restriction, parameterised by a
  distance oracle (Dijkstra / CH / hub labels / TNR / MGtree).
* :class:`DistanceBrowsing` — SILC-based interval refinement, in both the
  DB-ENN (R-tree candidates) and Object-Hierarchy variants.
* :class:`GTreeKNN` — G-tree hierarchy traversal with occurrence lists.
* :class:`RoadKNN` — ROAD's Rnet bypassing: the INE kernel over an overlay graph.

All return ``[(network_distance, object_vertex), ...]`` sorted ascending,
ties broken by vertex id.
"""

from repro.knn.base import KNNAlgorithm, verify_knn_result
from repro.knn.ine import INE, ine_knn
from repro.knn.ier import IER, euclidean_knn_brute_force
from repro.knn.gtree_knn import GTreeKNN
from repro.knn.road_knn import RoadKNN
from repro.knn.distance_browsing import DistanceBrowsing
from repro.knn.paths import (
    knn_with_paths,
    shortest_paths_to,
    silc_paths_for_results,
)

__all__ = [
    "KNNAlgorithm",
    "verify_knn_result",
    "INE",
    "ine_knn",
    "IER",
    "euclidean_knn_brute_force",
    "GTreeKNN",
    "RoadKNN",
    "DistanceBrowsing",
    "knn_with_paths",
    "shortest_paths_to",
    "silc_paths_for_results",
]
