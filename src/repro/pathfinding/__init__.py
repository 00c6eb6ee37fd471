"""Shortest-path substrates.

Everything IER can be combined with (Section 5): plain Dijkstra,
Contraction Hierarchies, pruned hub labelling (the PHL stand-in), Transit
Node Routing, plus scipy-backed bulk routines used only at index
construction time.
"""

from repro.pathfinding.dijkstra import (
    DijkstraOracle,
    dijkstra_distance,
    dijkstra_path,
    dijkstra_sssp,
    dijkstra_to_targets,
)
from repro.pathfinding.bulk import bulk_sssp, bulk_distance_matrix, first_hops
from repro.pathfinding.ch import ContractionHierarchy
from repro.pathfinding.hub_labels import HubLabels
from repro.pathfinding.tnr import TransitNodeRouting

__all__ = [
    "DijkstraOracle",
    "dijkstra_distance",
    "dijkstra_path",
    "dijkstra_sssp",
    "dijkstra_to_targets",
    "bulk_sssp",
    "bulk_distance_matrix",
    "first_hops",
    "ContractionHierarchy",
    "HubLabels",
    "TransitNodeRouting",
]
