"""Array-native hot-path kernels.

This package is the rung *above* the paper's Section 6.2 implementation
ladder: where the paper stops at "flat CSR arrays + binary heap without
decrease-key", these kernels remove the remaining per-edge interpreter
and allocation overhead:

* Whole-frontier kernels — :func:`p2p_distance`, :func:`sssp_bounded`,
  :func:`distances_to_targets`, :func:`nearest_objects` — run the entire
  expansion at C speed with an expanding radius limit and
  settle-equivalent counters (:mod:`repro.kernels.sssp`).  They *are*
  the library's Dijkstra and INE.
* :func:`bulk_sssp` — the multi-source distance-matrix kernel index
  builders fan preprocessing out over (re-exported from
  :mod:`repro.pathfinding.bulk`).

There is one implementation per algorithm and no switch between them;
the per-edge loops these kernels are checked against live in
:mod:`repro.reference` (``tests/test_kernels.py`` asserts identical
answers and identical settled-vertex counters).
"""

from repro.kernels.sssp import (
    distances_to_targets,
    nearest_objects,
    p2p_distance,
    prepared_objects,
    sssp_bounded,
    sssp_distances,
)
from repro.pathfinding.bulk import bulk_sssp

__all__ = [
    "p2p_distance",
    "sssp_bounded",
    "sssp_distances",
    "distances_to_targets",
    "nearest_objects",
    "prepared_objects",
    "bulk_sssp",
]
