"""Road-network indexes: G-tree, ROAD and SILC.

Each module provides an index (built once per road network) and the kNN /
distance machinery the paper evaluates on top of it.  G-tree and ROAD
share one partition hierarchy (:mod:`repro.index.hierarchy`: skeleton,
minigraph kernel, build-as-repair driver).  Object-set indexes
(Occurrence Lists, Association Directories) live here too since they are
bound to the corresponding road-network index.
"""

from repro.index.gtree import GTree, GTreeOracle, OccurrenceList, MATRIX_BACKENDS
from repro.index.road import RoadIndex, AssociationDirectory
from repro.index.silc import SILCIndex

__all__ = [
    "GTree",
    "GTreeOracle",
    "OccurrenceList",
    "MATRIX_BACKENDS",
    "RoadIndex",
    "AssociationDirectory",
    "SILCIndex",
]
