"""Unified query-engine service layer.

This package is the library's primary public API for answering kNN
queries.  It separates three concerns that used to be fused inside the
experiment harness:

* :mod:`repro.engine.registry` — a pluggable **method registry**.  Each
  of the paper's methods (and every IER oracle variant) is declared with
  ``@register_method(name, ...)``: its constructor and the indexes it
  needs, which also decide where it can run.  Third-party
  methods plug in the same way — see the module docstring for the
  three-line recipe for adding a sixth method.
* :mod:`repro.engine.workbench` — :class:`IndexCache`, the lazily built,
  shared road-network index collection (G-tree, ROAD, SILC, CH, hub
  labels, TNR) that method builders draw from.
* :mod:`repro.engine.engine` — :class:`QueryEngine`, the facade with
  ``query`` / ``batch`` / ``explain`` and the density-based auto
  planner, returning structured :class:`KNNResult` records that carry
  the neighbors, provenance, per-query counters and wall-clock time.

Quickstart::

    from repro import QueryEngine, road_network, uniform_objects

    graph = road_network(2000, seed=7)
    objects = uniform_objects(graph, density=0.01, seed=1)
    engine = QueryEngine(graph, objects)
    result = engine.query(42, k=5)        # method="auto" picks one
    print(result.method, result.time_us, result.neighbors)
"""

from repro.engine.query import (
    KNNQuery,
    KNNResult,
    Neighbor,
    as_queries,
    normalise_query,
)
from repro.engine.registry import (
    MethodSpec,
    MethodUnavailable,
    UnknownMethod,
    available_methods,
    create_method,
    get_method,
    known_methods,
    method_specs,
    register_method,
    unregister_method,
)
from repro.engine.workbench import IndexCache, as_index_cache
from repro.engine.planner import AUTO_DENSITY_THRESHOLD, plan_method
from repro.engine.engine import QueryEngine

__all__ = [
    "QueryEngine",
    "KNNQuery",
    "KNNResult",
    "Neighbor",
    "as_queries",
    "normalise_query",
    "IndexCache",
    "as_index_cache",
    "MethodSpec",
    "MethodUnavailable",
    "UnknownMethod",
    "register_method",
    "unregister_method",
    "get_method",
    "known_methods",
    "method_specs",
    "create_method",
    "available_methods",
    "plan_method",
    "AUTO_DENSITY_THRESHOLD",
]
