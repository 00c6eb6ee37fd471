"""Load drivers and latency reporting for the kNN server.

Two driving disciplines, matching the standard load-testing taxonomy:

* **closed loop** (:func:`run_closed_loop`) — ``concurrency`` synthetic
  clients each submit one request, wait for its response, then submit
  the next.  Offered load adapts to the server; measures sustainable
  throughput.
* **open loop** (:func:`run_open_loop`) — requests are injected at the
  workload's ``at_s`` arrival times regardless of completions (the
  "users don't wait for each other" model); measures behaviour under an
  offered rate, including rejections once the bounded queue fills.

Both return a :class:`LoadReport` with throughput, p50/p95/p99 latency,
per-status counts and the server's cache/batching stats.
``LoadReport.to_dict()`` is the machine-readable ``BENCH_server.json``
payload the CLI ``loadtest`` subcommand emits for trajectory tracking.

:func:`sequential_baseline` runs the same workload single-threaded
through ``QueryEngine.query`` — the denominator for the server's
speedup claim.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.engine.engine import QueryEngine
from repro.engine.query import KNNResult
from repro.server.request import ERROR, OK, PendingRequest
from repro.server.server import KNNServer
from repro.server.workloads import WorkItem


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]); 0.0 for empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(p * len(ordered) / 100.0) - 1))
    return ordered[rank]


@dataclass
class LoadReport:
    """Everything one load-test run measured."""

    mode: str
    requests: int
    duration_s: float
    status_counts: Dict[str, int] = field(default_factory=dict)
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_mean_ms: float = 0.0
    server_stats: Dict[str, object] = field(default_factory=dict)
    baseline_qps: Optional[float] = None
    #: Per-item responses in workload order (not serialised); lets the
    #: caller verify server answers against a ground-truth run.  A slot
    #: is ``None`` where the driver timed out waiting for the response.
    responses: List[object] = field(default_factory=list, repr=False)
    #: Client-side resubmissions (error responses / wait timeouts that
    #: the driver retried with backoff); 0 when retries are disabled.
    client_retries: int = 0

    @property
    def completed(self) -> int:
        return self.status_counts.get(OK, 0)

    @property
    def throughput_qps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def speedup(self) -> Optional[float]:
        if self.baseline_qps is None or self.baseline_qps <= 0:
            return None
        return self.throughput_qps / self.baseline_qps

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (the ``BENCH_server.json`` schema)."""
        return {
            "bench": "server_loadtest",
            "mode": self.mode,
            "requests": self.requests,
            "completed": self.completed,
            "duration_s": round(self.duration_s, 6),
            "throughput_qps": round(self.throughput_qps, 3),
            "latency_ms": {
                "p50": round(self.latency_p50_ms, 4),
                "p95": round(self.latency_p95_ms, 4),
                "p99": round(self.latency_p99_ms, 4),
                "mean": round(self.latency_mean_ms, 4),
            },
            "status_counts": dict(self.status_counts),
            "client_retries": self.client_retries,
            "baseline_qps": (
                round(self.baseline_qps, 3) if self.baseline_qps else None
            ),
            "speedup": (
                round(self.speedup, 3) if self.speedup is not None else None
            ),
            "server": self.server_stats,
        }


def _report(
    mode: str,
    server: KNNServer,
    completed: Sequence[PendingRequest],
    duration_s: float,
    client_retries: int = 0,
) -> LoadReport:
    latencies_ms: List[float] = []
    status_counts: Dict[str, int] = {}
    responses = []
    for pending in completed:
        try:
            response = pending.result(timeout=0)
        except TimeoutError:
            # The driver gave up on this request (client-side timeout);
            # keep the slot so responses stays aligned with the workload.
            responses.append(None)
            status_counts["timeout"] = status_counts.get("timeout", 0) + 1
            continue
        responses.append(response)
        status_counts[response.status] = status_counts.get(response.status, 0) + 1
        if response.ok:
            latencies_ms.append(response.latency_s * 1e3)
    return LoadReport(
        mode=mode,
        requests=len(completed),
        duration_s=duration_s,
        status_counts=status_counts,
        latency_p50_ms=percentile(latencies_ms, 50),
        latency_p95_ms=percentile(latencies_ms, 95),
        latency_p99_ms=percentile(latencies_ms, 99),
        latency_mean_ms=(
            sum(latencies_ms) / len(latencies_ms) if latencies_ms else 0.0
        ),
        server_stats=server.stats(),
        responses=responses,
        client_retries=client_retries,
    )


class _RetryingClient:
    """Shared submit-await-retry discipline for the load drivers.

    A request is resubmitted (a *fresh* submission — the original may
    still complete; only the last attempt is reported) when the client
    times out waiting or receives an ``error`` response, up to
    ``retries`` times with doubling backoff capped at 100 ms.
    Rejections and deadline misses are **not** retried: they are the
    server's admission-control and timeliness signals, and hammering a
    full queue with resubmissions would only deepen the overload the
    bounded queue exists to shed.
    """

    def __init__(self, retries: int, backoff_s: float) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.retries = retries
        self.backoff_s = backoff_s
        self.total = 0
        self._lock = threading.Lock()

    def _await(self, pending: PendingRequest, timeout_s: float):
        try:
            return pending.result(timeout=timeout_s)
        except TimeoutError:
            return None  # reported as a client-side timeout

    def _retryable(self, response) -> bool:
        return response is None or response.status == ERROR

    def drive(
        self, server: KNNServer, item: WorkItem, timeout_s: float
    ) -> PendingRequest:
        """Submit ``item`` and wait, retrying per the policy above."""
        pending = server.submit(
            item.vertex, item.k, item.method, category=item.category
        )
        response = self._await(pending, timeout_s)
        return self.redrive(server, item, pending, response, timeout_s)

    def redrive(
        self,
        server: KNNServer,
        item: WorkItem,
        pending: PendingRequest,
        response,
        timeout_s: float,
    ) -> PendingRequest:
        """Retry an already-awaited attempt until it sticks or budget ends."""
        attempt = 0
        while self._retryable(response) and attempt < self.retries:
            attempt += 1
            with self._lock:
                self.total += 1
            time.sleep(min(self.backoff_s * 2 ** (attempt - 1), 0.1))
            pending = server.submit(
                item.vertex, item.k, item.method, category=item.category
            )
            response = self._await(pending, timeout_s)
        return pending


def run_closed_loop(
    server: KNNServer,
    items: Sequence[WorkItem],
    *,
    concurrency: int = 8,
    timeout_s: float = 30.0,
    retries: int = 0,
    retry_backoff_s: float = 0.01,
) -> LoadReport:
    """Replay ``items`` from ``concurrency`` request-wait-request clients.

    ``retries`` > 0 resubmits error responses and client-side wait
    timeouts with doubling backoff (see :class:`_RetryingClient`); the
    report's ``client_retries`` counts every resubmission.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    done: List[PendingRequest] = [None] * len(items)  # type: ignore[list-item]
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    retrier = _RetryingClient(retries, retry_backoff_s)

    def client() -> None:
        while True:
            with cursor_lock:
                i = cursor["next"]
                if i >= len(items):
                    return
                cursor["next"] = i + 1
            done[i] = retrier.drive(server, items[i], timeout_s)

    start = time.perf_counter()
    clients = [
        threading.Thread(target=client, name=f"load-client-{c}", daemon=True)
        for c in range(min(concurrency, max(1, len(items))))
    ]
    for t in clients:
        t.start()
    for t in clients:
        t.join()
    duration = time.perf_counter() - start
    return _report(
        "closed-loop", server, [p for p in done if p], duration,
        client_retries=retrier.total,
    )


def run_open_loop(
    server: KNNServer,
    items: Sequence[WorkItem],
    *,
    time_scale: float = 1.0,
    timeout_s: float = 30.0,
    retries: int = 0,
    retry_backoff_s: float = 0.01,
) -> LoadReport:
    """Inject ``items`` at their ``at_s`` arrival offsets, waits be damned.

    ``time_scale`` compresses the schedule (0.1 replays a 60 s diurnal
    trace in 6 s).  Requests are fired from one injector thread; all
    outstanding futures are awaited at the end.  Rejections (queue full
    at the offered rate) land in ``status_counts["rejected"]`` — that is
    the admission-control signal, not an error.
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    submitted: List[PendingRequest] = []
    retrier = _RetryingClient(retries, retry_backoff_s)
    start = time.perf_counter()
    for item in items:
        due = start + item.at_s * time_scale
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        submitted.append(
            server.submit(
                item.vertex, item.k, item.method, category=item.category
            )
        )
    # Retries happen in the await pass so they never perturb the
    # injection schedule (the whole point of an open loop).
    for i, pending in enumerate(submitted):
        response = retrier._await(pending, timeout_s)
        submitted[i] = retrier.redrive(
            server, items[i], pending, response, timeout_s
        )
    duration = time.perf_counter() - start
    return _report(
        "open-loop", server, submitted, duration,
        client_retries=retrier.total,
    )


def sequential_baseline(
    engine: QueryEngine, items: Sequence[WorkItem]
) -> tuple:
    """Single-threaded ``engine.query`` over the workload.

    ``engine`` may also be a ``{category: QueryEngine}`` mapping for
    category-switching workloads.  Returns ``(qps, results)`` — the
    results double as the ground truth the server's responses are
    compared byte-for-byte against.
    """
    engines = engine if isinstance(engine, dict) else {None: engine}
    results: List[KNNResult] = []
    start = time.perf_counter()
    for item in items:
        one = engines[item.category if item.category in engines else None]
        results.append(one.query(item.vertex, item.k, method=item.method))
    duration = time.perf_counter() - start
    qps = len(items) / duration if duration > 0 else 0.0
    return qps, results
