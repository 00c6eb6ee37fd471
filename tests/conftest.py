"""Shared fixtures: small deterministic networks, object sets and the
closed loop the serving gates replay their requests through.

Seeding convention
------------------
Every source of randomness in this repo is an explicit integer seed fed
to ``numpy.random.default_rng`` — never the global numpy state, never
time-based.  The rules, applied across test fixtures, graph/object
generators and the request streams below:

* anything random takes a ``seed=`` parameter and must be fully
  deterministic in it — same seed, same graph / object set / request
  stream (``tests/test_generators.py`` and ``tests/test_objects.py``
  assert this for the generators);
* a function with several independent random decisions derives distinct
  streams as ``seed + small_offset`` (``poi_object_sets`` seeds its
  categories ``seed + 101 * index``; the chaos gate draws its graph,
  objects and requests from ``seed``, ``seed + 1`` and ``seed + 2``), so
  adding a decision never perturbs existing streams;
* the session-scoped fixtures below are *shared state*: tests must not
  mutate them.  In particular, weight-delta tests build their own
  function-scoped graphs — ``Graph.apply_weight_deltas`` on ``road400``
  would corrupt every later test in the session.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.graph.generators import road_network, grid_network, travel_time_weights
from repro.graph.graph import Graph, from_edge_list
from repro.objects import uniform_objects
from repro.server import ERROR
from repro.store import INDEX_KINDS


@pytest.fixture(scope="session")
def line_graph():
    """A 6-vertex path with unit-ish weights (hand-checkable)."""
    coords = [(float(i), 0.0) for i in range(6)]
    edges = [(i, i + 1, 1.0 + 0.1 * i) for i in range(5)]
    return from_edge_list(coords, edges, name="line6")


@pytest.fixture(scope="session")
def small_grid():
    return grid_network(6, 6, seed=1, drop_fraction=0.0)


@pytest.fixture(scope="session")
def road400():
    """Default mid-size test network."""
    return road_network(400, seed=7)


@pytest.fixture(scope="session")
def road400_time(road400):
    return travel_time_weights(road400, seed=7)


@pytest.fixture(scope="session")
def objects400(road400):
    return uniform_objects(road400, density=0.03, seed=5)


@pytest.fixture(scope="session")
def queries400(road400):
    rng = np.random.default_rng(3)
    return [int(q) for q in rng.integers(0, road400.num_vertices, size=20)]


def _hotspot_vertices(num_vertices, n, *, hot_vertices, skew=1.1, seed):
    """``n`` picks with Zipf(``skew``) popularity over ``hot_vertices``
    random vertices: a few hot spots take most of the traffic."""
    rng = np.random.default_rng(seed)
    pool = min(hot_vertices, num_vertices)
    hot = rng.choice(num_vertices, size=pool, replace=False)
    weights = np.arange(1, pool + 1, dtype=float) ** -float(skew)
    picks = rng.choice(hot, size=n, p=weights / weights.sum())
    return [int(v) for v in picks]


def _closed_loop(server, vertices, k, method="auto", *, concurrency,
                 retries=0, backoff_s=0.01, timeout_s=30.0):
    """Replay ``vertices`` from ``concurrency`` threads, each looping
    ``submit`` -> ``result(timeout_s)``.

    An ``error`` response or a wait timeout is resubmitted up to
    ``retries`` times, the backoff doubling up to a 100 ms cap.
    ``rejected`` and ``deadline_exceeded`` are never retried: they are
    the server's admission and timeliness answers.  Returns
    ``(responses, resubmissions, seconds)``; ``responses`` is in input
    order, ``None`` where the last wait timed out.
    """
    responses = [None] * len(vertices)
    cursor = iter(range(len(vertices)))
    lock = threading.Lock()
    resubmissions = 0

    def client():
        nonlocal resubmissions
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            for attempt in range(retries + 1):
                if attempt:
                    with lock:
                        resubmissions += 1
                    time.sleep(min(backoff_s * 2 ** (attempt - 1), 0.1))
                try:
                    response = server.submit(vertices[i], k, method).result(
                        timeout_s
                    )
                except TimeoutError:
                    response = None
                responses[i] = response
                if response is not None and response.status != ERROR:
                    break

    threads = [
        threading.Thread(target=client, daemon=True) for _ in range(concurrency)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return responses, resubmissions, time.perf_counter() - start


@pytest.fixture(scope="session")
def hotspot_vertices():
    return _hotspot_vertices


@pytest.fixture(scope="session")
def closed_loop():
    return _closed_loop


@pytest.fixture
def cap_silc(monkeypatch):
    """``cap_silc(limit)`` lowers SILC's vertex cap for one test by
    patching its one definition, the ``INDEX_KINDS["silc"]`` record."""

    def cap(limit: int) -> None:
        monkeypatch.setitem(
            INDEX_KINDS, "silc", replace(INDEX_KINDS["silc"], max_vertices=limit)
        )

    return cap


# ----------------------------------------------------------------------
# Adversarial inputs for the shared partition hierarchy
# ----------------------------------------------------------------------
def _unit_grid_edges(width, height, offset=0):
    edges = []
    for r in range(height):
        for c in range(width):
            i = offset + r * width + c
            if c + 1 < width:
                edges.append((i, i + 1, 1.0))
            if r + 1 < height:
                edges.append((i, i + width, 1.0))
    return edges


def _with_parallel_edges(graph: Graph) -> Graph:
    """``graph`` plus, on every third edge, two parallel copies — one
    heavier, one lighter — written straight into the CSR (GraphBuilder
    would collapse them)."""
    arcs = []
    for k, (u, v, w) in enumerate(graph.edge_list()):
        weights = (w, 1.7 * w, 0.6 * w) if k % 3 == 0 else (w,)
        for x in weights:
            arcs += [(u, v, x), (v, u, x)]
    arcs.sort(key=lambda a: (a[0], a[1]))
    src = np.asarray([a[0] for a in arcs])
    vertex_start = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.add.at(vertex_start, src + 1, 1)
    return Graph(
        np.cumsum(vertex_start),
        np.asarray([a[1] for a in arcs], dtype=np.int32),
        np.asarray([a[2] for a in arcs], dtype=np.float64),
        graph.x, graph.y, name="parallel",
    )


@pytest.fixture(scope="session")
def adversarial_graphs():
    """Two disconnected pieces, a unit-weight grid (ties everywhere) and
    a network with parallel edges of different weight."""
    coords = [(float(c), float(r)) for r in range(9) for c in range(9)]
    far = [(x + 40.0, y) for x, y in coords]
    return {
        "disconnected": from_edge_list(
            coords + far,
            _unit_grid_edges(9, 9) + [
                (u, v, 1.5) for u, v, _ in _unit_grid_edges(9, 9, offset=81)
            ],
            name="two-pieces", require_connected=False,
        ),
        "unit-grid": from_edge_list(
            [(float(c), float(r)) for r in range(13) for c in range(13)],
            _unit_grid_edges(13, 13), name="unit-grid",
        ),
        "parallel": _with_parallel_edges(road_network(180, seed=3)),
    }


def _induced_min_csr(graph: Graph, vertices) -> csr_matrix:
    pos = {int(v): i for i, v in enumerate(vertices)}
    best = {}
    for v, i in pos.items():
        for t, w in graph.neighbors(v):
            j = pos.get(t)
            if j is not None and w < best.get((i, j), np.inf):
                best[(i, j)] = w
    rows, cols = zip(*best) if best else ((), ())
    return csr_matrix(
        (list(best.values()), (rows, cols)), shape=(len(pos), len(pos))
    )


@pytest.fixture(scope="session")
def induced_min_csr():
    """``f(graph, vertices)``: the subgraph induced by ``vertices`` as a
    scipy CSR in positions of ``vertices``, parallel edges collapsed to
    their minimum — built edge by edge, sharing no code with
    ``repro.index.hierarchy``."""
    return _induced_min_csr
