"""Request/response primitives for the concurrent kNN server.

A client submits a :class:`ServerRequest` (a vertex, ``k``, a method
choice, an optional POI category and an optional deadline) and receives a
:class:`PendingRequest` — a small thread-safe future that resolves to a
:class:`ServerResponse` once the request has been answered, rejected or
expired.  The payload of a successful response is the engine's ordinary
:class:`~repro.engine.query.KNNResult`, so server answers are
byte-identical to direct ``QueryEngine.query`` calls on the same input.
A result-cache miss travels to the workers as a :class:`Flight`: one
computation and every request waiting on it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.engine.query import KNNResult

#: Response statuses.  Plain strings (not an Enum) so they serialise into
#: ``stats()`` JSON without adapters.
OK = "ok"
REJECTED = "rejected"  # admission control: bounded queue was full
DEADLINE_EXCEEDED = "deadline_exceeded"  # expired while queued
ERROR = "error"  # the query raised (e.g. MethodUnavailable)

STATUSES = (OK, REJECTED, DEADLINE_EXCEEDED, ERROR)


@dataclass(frozen=True)
class ServerRequest:
    """One kNN request as the server sees it.

    ``category`` selects one of the server's named object sets (``None``
    is the default set); ``deadline_s`` is a relative time budget — a
    request still queued when it runs out is answered
    :data:`DEADLINE_EXCEEDED` instead of occupying a worker.
    """

    vertex: int
    k: int
    method: str = "auto"
    category: Optional[str] = None
    deadline_s: Optional[float] = None
    #: ``time.monotonic()`` at submission; set by the server.
    submitted_at: float = field(default=0.0, compare=False)

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline_s is None:
            return False
        now = time.monotonic() if now is None else now
        return now - self.submitted_at > self.deadline_s


@dataclass(frozen=True)
class ServerResponse:
    """The terminal state of one request."""

    request: ServerRequest
    status: str
    result: Optional[KNNResult] = None
    error: Optional[str] = None
    #: Submission-to-completion wall time (queueing + service).
    latency_s: float = 0.0
    #: True when the answer came from the result cache.
    cache_hit: bool = False
    #: True when this request was coalesced onto another's computation.
    coalesced: bool = False
    #: True when the engine answered via a fallback method (the planner's
    #: choice failed or was circuit-broken).  Mirrors
    #: ``result.degraded`` for callers that only look at the response.
    degraded: bool = False
    #: The method the answer degraded from (None when not degraded).
    fallback_from: Optional[str] = None
    #: Server-side retry attempts this request's computation consumed
    #: beyond the first (0 on a clean first attempt).
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.status == OK


class PendingRequest:
    """A thread-safe one-shot future for a submitted request.

    ``result(timeout)`` blocks until the request is completed and
    returns the :class:`ServerResponse`; it raises ``TimeoutError`` if
    the response does not arrive in time — the request itself is *not*
    cancelled.  A future built with its ``response`` (a cache hit, a
    rejection) is born complete and never allocates the event a waiter
    would block on.
    """

    __slots__ = ("request", "_event", "_response")

    def __init__(
        self, request: ServerRequest, response: Optional[ServerResponse] = None
    ) -> None:
        self.request = request
        self._response = response
        self._event = None if response is not None else threading.Event()

    def done(self) -> bool:
        return self._response is not None

    def complete(self, response: ServerResponse) -> None:
        """Resolve the future (first completion wins; later ones are no-ops)."""
        if self._response is None:
            self._response = response
            self._event.set()

    def result(self, timeout: Optional[float] = None) -> ServerResponse:
        if self._response is None and not self._event.wait(timeout):
            request = self.request
            raise TimeoutError(
                f"request (vertex={request.vertex}, k={request.k}, "
                f"method={request.method!r}, category={request.category!r}) "
                f"not completed within {timeout}s"
            )
        return self._response


class Flight:
    """One admitted result-cache miss on its way through the workers.

    ``state`` is the ``(engine, objects fingerprint, graph fingerprint)``
    snapshot ``submit`` resolved ``resolved`` and ``key`` against, so the
    worker that executes the flight repeats none of that work.
    ``waiters[0]`` is the request that opened the flight; the rest are
    duplicates of ``key`` that were submitted while it was in flight and
    ride on its one computation.
    """

    __slots__ = ("key", "state", "resolved", "waiters")

    def __init__(
        self, key: tuple, state: tuple, resolved: str, leader: PendingRequest
    ) -> None:
        self.key = key
        self.state = state
        self.resolved = resolved
        self.waiters: List[PendingRequest] = [leader]

    @property
    def request(self) -> ServerRequest:
        """The request the computation runs for (the leader's)."""
        return self.waiters[0].request
