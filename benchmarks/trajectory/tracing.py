"""Spans recorded from the benchmark's own files.

A :class:`Recorder` wraps public callables *on the instances a run
uses* — ``engine.query``, ``algorithm.knn``, an IER oracle's
``distance``, the R-tree cursor's ``next``, ``cache.get`` / ``put``,
``store.put`` / ``get``, ``apply_updates`` — by setting an instance
attribute that shadows the bound method.  Nothing under ``src/`` is
edited and ``repro.obs`` spans are not read (routing the trajectory
through ``repro.obs`` is ROADMAP aim 4, a later change).

Span = name, start, end, parent, request id; kept in memory, written out
once at the end.  Spans nest through a per-thread stack; a span opened
on a thread with an empty stack (a server worker) hangs under the
request currently in flight, which is unambiguous because the traced
replay has a single closed-loop client.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: IER oracle class -> span name of its ``distance``.
ORACLE_SPANS = {
    "GTreeOracle": "index.gtree_oracle.distance",
    "ContractionHierarchy": "pathfinding.ch.distance",
    "HubLabels": "pathfinding.hub_labels.distance",
    "TransitNodeRouting": "pathfinding.tnr.distance",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, start: float, parent: Optional["Span"], request: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._requests = 0
        #: Root span of the request in flight (server replays only).
        self.root: Optional[Span] = None
        self._wait_recorded = False
        self._wrapped: List[Tuple[object, str]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        if parent is None:
            self._requests += 1
            request = self._requests
        else:
            request = parent.request
        span = Span(name, clock(), parent, request)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        self._stack().pop()

    def add(self, name: str, start: float, end: float, parent: Span) -> None:
        """A finished span with explicit bounds (queue wait)."""
        span = Span(name, start, parent, parent.request)
        span.end = end
        self.spans.append(span)

    def begin_request(self, name: str) -> Span:
        """Open the root span of a served request on the client thread;
        worker-side spans attach to it until :meth:`end_request`."""
        self.root = None
        root = self.open(name)
        self.root = root
        self._wait_recorded = False
        return root

    def end_request(self, root: Span) -> None:
        self.close(root)
        self.root = None

    # -- wrapping ------------------------------------------------------
    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a version that records a span."""
        if attr in vars(obj):
            return  # already wrapped (an oracle shared by two methods)
        fn = getattr(obj, attr)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        setattr(obj, attr, wrapper)
        self._wrapped.append((obj, attr))

    def wrap_cursor(self, rtree: object) -> None:
        """Make ``rtree.nearest_cursor`` hand out cursors whose ``next``
        records ``spatial.rtree.next``."""
        if "nearest_cursor" in vars(rtree):
            return
        make = rtree.nearest_cursor
        recorder = self

        class TracedCursor:
            def __init__(self, cursor) -> None:
                self._cursor = cursor

            def next(self):
                span = recorder.open("spatial.rtree.next")
                try:
                    return self._cursor.next()
                finally:
                    recorder.close(span)

            def __getattr__(self, attr):
                return getattr(self._cursor, attr)

        rtree.nearest_cursor = lambda px, py: TracedCursor(make(px, py))
        self._wrapped.append((rtree, "nearest_cursor"))

    def wrap_algorithm(self, method: str, algorithm: object) -> None:
        """``knn.query{method}`` plus, for IER, its oracle and R-tree."""
        self.wrap(algorithm, "knn", "knn.query{%s}" % method)
        oracle = getattr(algorithm, "oracle", None)
        span_name = ORACLE_SPANS.get(type(oracle).__name__)
        if span_name is not None:
            self.wrap(oracle, "distance", span_name)
        rtree = getattr(algorithm, "rtree", None)
        if rtree is not None:
            self.wrap_cursor(rtree)

    def wrap_cache(self, cache: object) -> None:
        """``server.cache_get`` / ``server.cache_put``; the first lookup
        of a request also closes its ``server.queue_wait``."""
        if "get" in vars(cache):
            return
        get = cache.get
        recorder = self

        def traced_get(key):
            root = recorder.root
            span = recorder.open("server.cache_get")
            if root is not None and not recorder._wait_recorded:
                # Once per request: a retried group looks up twice.
                recorder.add("server.queue_wait", root.start, span.start, root)
                recorder._wait_recorded = True
            try:
                return get(key)
            finally:
                recorder.close(span)

        cache.get = traced_get
        self._wrapped.append((cache, "get"))
        self.wrap(cache, "put", "server.cache_put")

    def unwrap_all(self) -> None:
        for obj, attr in self._wrapped:
            vars(obj).pop(attr, None)
        self._wrapped.clear()

    # -- output --------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": None if span.parent is None else ids[id(span.parent)],
                    "request": span.request,
                }) + "\n")


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``id(span)`` -> its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    return {
        id(span): span.duration
        - covered(children.get(id(span), ()), span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self seconds per span name."""
    selfs = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += selfs[id(span)]
    return dict(totals)
