"""Per-method circuit breaker: closed -> open -> half-open -> closed.

The server keeps one :class:`CircuitBreaker` per resolved method.  While
*closed*, every request may use the method; ``failure_threshold``
consecutive primary-method failures trip it *open*.  While open,
:meth:`allow` answers False — the server serves those requests through
the engine's fallback chain without even attempting the broken method,
so a persistently failing kernel stops costing a failed attempt per
request.  After ``cooldown_s`` the breaker turns *half-open* and lets
exactly one probe request try the method again: success re-closes it,
failure re-opens it for another cooldown.

Callers must pair every ``allow() == True`` with exactly one
``record_success()``, ``record_failure()`` or — when the attempt failed
for a reason that says nothing about the method — ``release()``: a
half-open probe ticket is held until one of them arrives.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Thread-safe three-state breaker with single-probe half-open."""

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0  # consecutive, while closed
        self._opened_at = 0.0
        self._probe_inflight = False
        self._opened_total = 0
        self._closed_after_open = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May the caller attempt the protected method right now?"""
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at < self.cooldown_s:
                    return False
                self._state = HALF_OPEN
                self._probe_inflight = True
                return True
            # HALF_OPEN: one probe at a time.
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._probe_inflight = False
                self._closed_after_open += 1

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._trip()
            elif self._state == CLOSED:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._trip()

    def release(self) -> None:
        """Hand back an ``allow()`` ticket without a verdict."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_inflight = False

    def _trip(self) -> None:
        """Transition to OPEN (caller holds the lock)."""
        self._state = OPEN
        self._opened_at = self._clock()
        self._failures = 0
        self._probe_inflight = False
        self._opened_total += 1

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            snap: Dict[str, object] = {
                "state": self._state,
                "consecutive_failures": self._failures,
                "opened_total": self._opened_total,
                "closed_after_open": self._closed_after_open,
            }
            if self._state == OPEN:
                snap["open_for_s"] = round(
                    self._clock() - self._opened_at, 6
                )
            return snap
