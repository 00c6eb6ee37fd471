"""Concurrent kNN query serving over warm, shared, read-only indexes.

The subsystem that turns :class:`~repro.engine.engine.QueryEngine` into a
query *service*: a :class:`KNNServer` (a shared LRU result cache,
:mod:`repro.server.cache`, answered from on the caller's thread; behind
it submit-time coalescing, a bounded queue, a batching worker pool and
deadlines), workload generators
(:mod:`repro.server.workloads`) and closed-/open-loop load drivers
(:mod:`repro.server.loadgen`).

Index construction stays offline (``repro build`` + the PR-2 store);
at serve time the worker pool dispatches over one warm
:class:`~repro.engine.workbench.IndexCache` and performs **zero** index
builds — ``BUILD_COUNTERS`` proves it.  See ``docs/serving.md``.

Quickstart::

    from repro import QueryEngine, road_network, uniform_objects
    from repro.server import KNNServer

    graph = road_network(500, seed=7)
    engine = QueryEngine(graph, uniform_objects(graph, 0.02, seed=1))
    with KNNServer(engine, workers=4) as server:
        response = server.query(42, k=5)
        assert response.result.neighbors == engine.query(42, k=5).neighbors

CLI equivalents: ``repro serve`` and ``repro loadtest``.
"""

from repro.server.cache import (
    ResultCache,
    objects_fingerprint,
    result_key,
)
from repro.server.loadgen import (
    LoadReport,
    percentile,
    run_closed_loop,
    run_open_loop,
    sequential_baseline,
)
from repro.server.request import (
    DEADLINE_EXCEEDED,
    ERROR,
    OK,
    REJECTED,
    STATUSES,
    PendingRequest,
    ServerRequest,
    ServerResponse,
)
from repro.server.server import KNNServer, ServerClosed, UnknownCategory
from repro.server.workloads import (
    WorkItem,
    category_switching_workload,
    diurnal_workload,
    hotspot_workload,
    uniform_workload,
    zipf_weights,
)

__all__ = [
    "KNNServer",
    "ServerClosed",
    "UnknownCategory",
    "ServerRequest",
    "ServerResponse",
    "PendingRequest",
    "OK",
    "REJECTED",
    "DEADLINE_EXCEEDED",
    "ERROR",
    "STATUSES",
    "ResultCache",
    "objects_fingerprint",
    "result_key",
    "WorkItem",
    "uniform_workload",
    "hotspot_workload",
    "diurnal_workload",
    "category_switching_workload",
    "zipf_weights",
    "LoadReport",
    "percentile",
    "run_closed_loop",
    "run_open_loop",
    "sequential_baseline",
]
