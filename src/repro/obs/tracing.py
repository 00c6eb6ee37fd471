"""Structured tracing: span trees, a trace ring buffer, a slow-query log.

A *span* is one timed region of work with a name, attributes and child
spans.  Instrumented layers wrap their phases in ``with span("plan"):``
blocks; nesting follows the call stack (thread-local), so one served
query produces a tree like::

    query                         1.81ms  vertex=42 k=5
      plan                        0.02ms
      ensure                      0.01ms
      knn                         1.63ms  method=ine expand_settled=57
      paths                       0.12ms

Tracing is **off by default** — the repo benchmark's
``obs.overhead_share`` is measured with tracing disabled — and a
disabled :func:`span` returns a shared no-op object, so dormant call
sites cost one attribute check.  Enable it for a block with
:func:`tracing`, or process-wide via ``TRACER.enabled = True``.

Completed *root* spans land in a bounded ring buffer
(:meth:`Tracer.recent`), and queries slower than
:attr:`Tracer.slow_threshold_s` are recorded — with their counters and,
when tracing is on, their span tree — in the slow-query log
(:meth:`Tracer.top_slow`).
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import deque
from typing import Dict, List, Optional


class Span:
    """One timed region: name, attributes, children, error state."""

    __slots__ = ("name", "attrs", "start_s", "duration_s", "children", "error")

    def __init__(self, name: str, attrs: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, object] = attrs or {}
        self.start_s = 0.0
        self.duration_s = 0.0
        self.children: List[Span] = []
        self.error: Optional[str] = None

    def annotate(self, **attrs) -> None:
        """Attach attributes (e.g. the query's counters) to this span."""
        self.attrs.update(attrs)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "duration_ms": self.duration_s * 1e3,
        }
        if self.attrs:
            out["attrs"] = {k: v for k, v in self.attrs.items()}
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def pretty(self, indent: int = 0) -> str:
        """Render this span tree as indented text for the CLI."""
        attrs = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        line = (
            f"{'  ' * indent}{self.name:<{max(28 - 2 * indent, 1)}} "
            f"{self.duration_s * 1e3:8.3f}ms"
        )
        if attrs:
            line += f"  {attrs}"
        if self.error is not None:
            line += f"  !! {self.error}"
        return "\n".join(
            [line] + [c.pretty(indent + 1) for c in self.children]
        )

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms, "
            f"{len(self.children)} children)"
        )


class _NoopSpan:
    """Shared do-nothing span for disabled tracing; reentrant."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager that opens a :class:`Span` on the tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        span = self._span
        span.start_s = time.perf_counter()
        self._tracer._push(span)
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.duration_s = time.perf_counter() - span.start_s
        if exc is not None:
            span.error = f"{type(exc).__name__}: {exc}"
        self._tracer._pop(span)
        return False


class Tracer:
    """Per-thread span stacks plus shared trace/slow-log ring buffers."""

    def __init__(self, ring_size: int = 256, slow_log_size: int = 512) -> None:
        #: Master switch; off by default (counters stay on regardless).
        self.enabled = False
        #: Root spans / queries at or above this duration enter the
        #: slow-query log; ``None`` disables slow-query capture.
        self.slow_threshold_s: Optional[float] = None
        self._local = threading.local()
        self._ring: deque = deque(maxlen=ring_size)
        self._slow: deque = deque(maxlen=slow_log_size)

    # ------------------------------------------------------------------
    # Span stack (thread-local)
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate a corrupted stack (a caller leaked a span) rather
        # than mis-parenting every later span on this thread.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            self._ring.append(span)  # deque append: thread-safe

    def span(self, name: str, **attrs):
        """A context manager timing one region (no-op when disabled)."""
        if not self.enabled:
            return NOOP_SPAN
        return _SpanContext(self, Span(name, attrs or None))

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Completed traces
    # ------------------------------------------------------------------
    def recent(self, n: Optional[int] = None) -> List[Span]:
        """The most recent completed root spans, newest last."""
        spans = list(self._ring)
        return spans if n is None else spans[-n:]

    def record_slow(self, record: Dict[str, object]) -> None:
        self._slow.append(record)

    def slow_queries(self) -> List[Dict[str, object]]:
        return list(self._slow)

    def top_slow(self, k: int = 10) -> List[Dict[str, object]]:
        """The k slowest entries currently in the slow-query log."""
        return sorted(
            self._slow, key=lambda r: r.get("time_s", 0.0), reverse=True
        )[:k]

    def clear(self) -> None:
        self._ring.clear()
        self._slow.clear()


#: Process-wide tracer used by every instrumented layer.
TRACER = Tracer()


def span(name: str, **attrs):
    """Module-level sugar for ``TRACER.span`` — the common import."""
    if not TRACER.enabled:
        return NOOP_SPAN
    return _SpanContext(TRACER, Span(name, attrs or None))


def traced(name: Optional[str] = None, **attrs):
    """Decorator form: wrap every call of ``fn`` in a span.

    The enabled check happens per call (not at decoration time), so
    decorating at import time is safe.
    """

    def decorate(fn):
        span_name = name or fn.__qualname__

        def wrapper(*args, **kwargs):
            if not TRACER.enabled:
                return fn(*args, **kwargs)
            with TRACER.span(span_name, **attrs):
                return fn(*args, **kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    return decorate


@contextlib.contextmanager
def tracing(slow_threshold_s: Optional[float] = None, clear: bool = False):
    """Enable tracing for a block, restoring prior state afterwards.

    >>> with tracing():
    ...     engine.query(42, k=5)          # doctest: +SKIP
    >>> TRACER.recent(1)[0].pretty()       # doctest: +SKIP
    """
    prev_enabled = TRACER.enabled
    prev_threshold = TRACER.slow_threshold_s
    if clear:
        TRACER.clear()
    TRACER.enabled = True
    if slow_threshold_s is not None:
        TRACER.slow_threshold_s = slow_threshold_s
    try:
        yield TRACER
    finally:
        TRACER.enabled = prev_enabled
        TRACER.slow_threshold_s = prev_threshold
