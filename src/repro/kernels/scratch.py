"""Reusable per-graph SSSP scratch buffers with generation-stamp reset.

``dijkstra_distance``-style loops used to allocate a fresh
``np.full(V, inf)`` distance array plus a settled container on *every*
query.  :class:`SSSPScratch` preallocates both once per (graph, thread)
and replaces the O(V) clear with an O(1) generation bump: an entry is
valid only when its stamp equals the current generation, so stale values
from earlier queries are invisible without ever being rewritten.

Thread safety: buffers are pooled per thread (server workers sharing one
engine never race on a scratch), and :func:`borrow` hands out a fresh
unpooled buffer on re-entrant use within a thread rather than corrupting
the one in flight.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager

import numpy as np


class SSSPScratch:
    """Distance + settled arrays valid only at the current generation.

    Usage inside a Dijkstra loop::

        gen = scratch.begin()
        dist, stamp, settled = scratch.dist, scratch.stamp, scratch.settled
        dist[s] = 0.0; stamp[s] = gen
        ...
        if settled[u] == gen: continue      # already settled this query
        settled[u] = gen
        ...
        if stamp[v] != gen or nd < dist[v]: # inf without initialising
            dist[v] = nd; stamp[v] = gen
    """

    __slots__ = ("n", "dist", "stamp", "settled", "gen", "in_use")

    def __init__(self, n: int) -> None:
        self.n = n
        self.dist = np.empty(n, dtype=np.float64)
        self.stamp = np.zeros(n, dtype=np.int64)
        self.settled = np.zeros(n, dtype=np.int64)
        self.gen = 0
        self.in_use = False

    def begin(self) -> int:
        """Start a new query: bump and return the generation stamp."""
        self.gen += 1
        return self.gen


_tls = threading.local()


def _pool() -> "weakref.WeakKeyDictionary":
    pool = getattr(_tls, "pool", None)
    if pool is None:
        pool = _tls.pool = weakref.WeakKeyDictionary()
    return pool


@contextmanager
def borrow(graph):
    """This thread's scratch for ``graph`` (fresh if re-entered).

    The pooled buffer is keyed weakly on the graph object, so dropping
    the graph drops its scratch.  Repeated queries on the same graph from
    the same thread reuse one allocation — the property
    ``tests/test_kernels.py::TestScratch`` asserts.
    """
    pool = _pool()
    scratch = pool.get(graph)
    n = graph.num_vertices
    if scratch is None or scratch.n != n:
        scratch = SSSPScratch(n)
        pool[graph] = scratch
    if scratch.in_use:  # re-entrant caller: do not corrupt the outer query
        yield SSSPScratch(n)
        return
    scratch.in_use = True
    try:
        yield scratch
    finally:
        scratch.in_use = False
