"""repro — k-Nearest Neighbors on Road Networks (VLDB 2016 reproduction).

A from-scratch, in-memory Python implementation of the systems studied in
Abeywickrama, Cheema & Taniar, *k-Nearest Neighbors on Road Networks: A
Journey in Experimentation and In-Memory Implementation* (PVLDB 9(6)):

* the five kNN methods — INE, IER, Distance Browsing, ROAD and G-tree;
* the shortest-path oracles IER is revived with — Dijkstra,
  Contraction Hierarchies, pruned hub labelling (the PHL stand-in) and
  Transit Node Routing;
* their substrates — CSR graphs, multilevel partitioning, R-trees,
  Morton/region quadtrees, SILC;
* workload generators and the experiment harness regenerating every
  table and figure of the paper's evaluation at laptop scale.

Quickstart — the :class:`QueryEngine` service layer is the primary API::

    from repro import QueryEngine, road_network, uniform_objects

    graph = road_network(2000, seed=7)
    objects = uniform_objects(graph, density=0.01, seed=1)
    engine = QueryEngine(graph, objects)

    result = engine.query(0, k=5)        # method="auto": planner picks one
    print(result.method, result.time_us) # provenance + timing
    for distance, vertex in result:      # iterates as (distance, vertex)
        print(vertex, distance)

    engine.batch(range(100), k=5)        # a workload, indexes built once
    engine.explain(0, k=5)               # every method + its counters

Every method lives in a pluggable registry — ``@register_method("name")``
adds a sixth method that immediately works in the engine, the CLI and the
experiment harness (see :mod:`repro.engine.registry`).  The underlying
algorithm classes (``INE(graph, objects).knn(0, 5)``, ...) remain public
for direct use.

Preprocessing is persistent: pass ``store=IndexStore(path)`` to the
engine (or use ``python -m repro build``) and every index is serialized
to a versioned on-disk artifact once, then warm-started by later
processes — see :mod:`repro.store` and README.md.
"""

from repro.engine import (
    IndexCache,
    KNNQuery,
    KNNResult,
    MethodUnavailable,
    Neighbor,
    QueryEngine,
    UnknownMethod,
    known_methods,
    register_method,
)
from repro.graph import (
    Graph,
    GraphBuilder,
    delaunay_network,
    grid_network,
    load_dimacs,
    road_network,
    save_dimacs,
    scaled_network_suite,
)
from repro.graph.generators import chain_heavy_network, travel_time_weights
from repro.index import (
    GTree,
    GTreeOracle,
    OccurrenceList,
    RoadIndex,
    AssociationDirectory,
    SILCIndex,
)
from repro.knn import (
    INE,
    IER,
    DistanceBrowsing,
    GTreeKNN,
    RoadKNN,
    knn_with_paths,
    silc_paths_for_results,
    verify_knn_result,
)
from repro.objects import (
    clustered_objects,
    min_distance_object_sets,
    poi_object_sets,
    uniform_objects,
)
from repro.pathfinding import (
    ContractionHierarchy,
    DijkstraOracle,
    HubLabels,
    TransitNodeRouting,
)
from repro.store import (
    ArtifactMissing,
    IndexStore,
    StoreCorruption,
    StoreError,
)

__version__ = "1.2.0"

__all__ = [
    "QueryEngine",
    "KNNQuery",
    "KNNResult",
    "Neighbor",
    "IndexCache",
    "register_method",
    "known_methods",
    "MethodUnavailable",
    "UnknownMethod",
    "Graph",
    "GraphBuilder",
    "grid_network",
    "delaunay_network",
    "road_network",
    "chain_heavy_network",
    "travel_time_weights",
    "scaled_network_suite",
    "load_dimacs",
    "save_dimacs",
    "GTree",
    "GTreeOracle",
    "OccurrenceList",
    "RoadIndex",
    "AssociationDirectory",
    "SILCIndex",
    "INE",
    "IER",
    "DistanceBrowsing",
    "GTreeKNN",
    "RoadKNN",
    "verify_knn_result",
    "knn_with_paths",
    "silc_paths_for_results",
    "uniform_objects",
    "clustered_objects",
    "min_distance_object_sets",
    "poi_object_sets",
    "DijkstraOracle",
    "ContractionHierarchy",
    "HubLabels",
    "TransitNodeRouting",
    "IndexStore",
    "ArtifactMissing",
    "StoreCorruption",
    "StoreError",
]
