"""Unified observability layer: metrics, tracing and run metadata.

One import surface for every instrumented layer:

* :mod:`repro.obs.metrics` — the process-wide :data:`REGISTRY` of
  counters / gauges / fixed-bucket latency histograms with per-label
  children, snapshot/delta/reset and Prometheus text exposition.
* :mod:`repro.obs.tracing` — the :func:`span` context-manager /
  :func:`traced` decorator API producing per-query span trees into a
  ring buffer, plus the threshold-triggered slow-query log.
* :func:`record_query` — the engine's once-per-query flush: latency
  into a per-method histogram, the per-query
  :class:`~repro.utils.counters.Counters` bag into labeled registry
  counters, and slow queries into the log.

Counters are **default-on** (the flush is a few dict operations per
query); tracing is **default-off**.  :func:`disabled` switches the
whole layer off for a block — the baseline ``benchmarks/bench_obs.py``
measures the ≤3% overhead budget against.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Optional, Tuple

from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_registry,
    quantile_from_buckets,
)
from repro.obs.runinfo import SCHEMA_VERSION, git_revision, run_metadata
from repro.obs.tracing import (
    NOOP_SPAN,
    Span,
    TRACER,
    Tracer,
    span,
    traced,
    tracing,
)

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "NOOP_SPAN",
    "REGISTRY",
    "SCHEMA_VERSION",
    "ServerSeries",
    "Span",
    "TRACER",
    "Tracer",
    "disabled",
    "get_registry",
    "git_revision",
    "quantile_from_buckets",
    "record_query",
    "run_metadata",
    "span",
    "traced",
    "tracing",
]


# Children survive MetricsRegistry.reset() (it zeroes in place), so the
# per-method series resolved once here stay valid for the process
# lifetime — resolving labels (kwargs, sort, tuple build) on every query
# would eat most of the flush budget.
_QUERY_SERIES: Dict[str, Tuple[Histogram, Counter]] = {}
_COUNTER_SERIES: Dict[Tuple[str, str], Counter] = {}


def record_query(
    method: str,
    time_s: float,
    counters,
    *,
    vertex: Optional[int] = None,
    k: Optional[int] = None,
    trace: Optional[Span] = None,
) -> None:
    """Flush one answered query into the registry and the slow-query log.

    Called by :meth:`QueryEngine.query` once per query — this is the
    single point where per-query algorithm counters become process-wide
    time series, so the hot loops themselves stay untouched.
    """
    reg = REGISTRY
    if reg.enabled:
        series = _QUERY_SERIES.get(method)
        if series is None:
            series = (
                reg.histogram(
                    "knn_query_seconds", "kNN query latency", method=method
                ),
                reg.counter(
                    "knn_queries_total", "kNN queries answered", method=method
                ),
            )
            _QUERY_SERIES[method] = series
        series[0].observe(time_s)
        series[1].inc()
        for name, value in counters.as_dict().items():
            key = (method, name)
            child = _COUNTER_SERIES.get(key)
            if child is None:
                child = reg.counter(
                    "knn_counter_total",
                    "per-query algorithm counters",
                    method=method,
                    counter=name,
                )
                _COUNTER_SERIES[key] = child
            child.inc(value)
    tracer = TRACER
    threshold = tracer.slow_threshold_s
    if threshold is not None and time_s >= threshold:
        record = {
            "time_s": time_s,
            "time_ms": time_s * 1e3,
            "method": method,
            "vertex": vertex,
            "k": k,
            "counters": counters.as_dict(),
        }
        if trace is not None and not isinstance(trace, type(NOOP_SPAN)):
            record["trace"] = trace.to_dict()
        tracer.record_slow(record)


class ServerSeries:
    """``KNNServer``'s metric catalog, its per-request children resolved
    once per server.

    Every request touches a handful of ``server_*`` children; resolving
    each by name and labels (kwargs, sort, tuple build, two dict
    lookups) per request cost more than a result-cache hit itself.  The
    serve path's five stages own one histogram each:

    ========  =============================  ===============================
    stage     histogram                      counter
    ========  =============================  ===============================
    cache     ``server_hit_seconds``         ``server_cache_requests_total``
    admit     ``server_queue_wait_seconds``  —
    batch     ``server_batch_size``          —
    execute   ``server_read_hold_seconds``   —
    respond   ``server_request_seconds``     ``server_requests_total``
    ========  =============================  ===============================

    ``apply_updates`` owns ``server_write_hold_seconds``.  The rare
    events in :attr:`EVENTS` are resolved by name when they happen.
    """

    #: event -> (counter family, help, label name or None).
    EVENTS = {
        "error": (
            "server_errors_total", "serve errors by taxonomy class", "class",
        ),
        "retry": (
            "server_retries_total",
            "transient-error retries, by error class",
            "class",
        ),
        "deadline_missed": (
            "server_deadline_missed_total",
            "requests whose deadline passed, by stage",
            "stage",
        ),
        "short_circuit": (
            "server_breaker_short_circuits_total",
            "queries steered around an open breaker",
            "method",
        ),
        "worker_restart": (
            "server_worker_restarts_total",
            "workers replaced by the supervisor, by reason",
            "reason",
        ),
        "worker_death": (
            "server_worker_deaths_total",
            "worker threads killed by an injected fault",
            None,
        ),
    }

    def __init__(self, statuses, reg: MetricsRegistry = REGISTRY) -> None:
        self._reg = reg
        self.hit_seconds = reg.histogram(
            "server_hit_seconds",
            "submit-to-response latency of result-cache hits",
        )
        self.cache_hit, self.cache_miss = (
            reg.counter(
                "server_cache_requests_total",
                "result-cache lookups by outcome",
                outcome=outcome,
            )
            for outcome in ("hit", "miss")
        )
        self.queue_wait = reg.histogram(
            "server_queue_wait_seconds",
            "admission-to-worker queue wait of result-cache misses",
        )
        self.batch_size = reg.histogram(
            "server_batch_size", "computations drained per worker dispatch"
        )
        self.read_hold = reg.histogram(
            "server_read_hold_seconds",
            "read-lock hold time per execution attempt",
        )
        self.write_hold = reg.histogram(
            "server_write_hold_seconds",
            "write-lock hold time per update batch",
        )
        #: status -> (``server_requests_total``, ``server_request_seconds``).
        self.responded: Dict[str, Tuple[Counter, Histogram]] = {
            status: (
                reg.counter(
                    "server_requests_total",
                    "server requests by final status",
                    status=status,
                ),
                reg.histogram(
                    "server_request_seconds",
                    "submit-to-response latency of requests not answered "
                    "from the result cache",
                    status=status,
                ),
            )
            for status in statuses
        }

    def event(self, kind: str, label: Optional[str] = None) -> None:
        """Count one rare event (a no-op while the registry is off)."""
        if self._reg.enabled:
            family, help, name = self.EVENTS[kind]
            labels = {name: label} if name else {}
            self._reg.counter(family, help, **labels).inc()


@contextlib.contextmanager
def disabled():
    """Switch the whole observability layer off for a block.

    The baseline the overhead benchmark compares against: metric
    flushes skip, spans no-op.  Per-query ``Counters`` bags keep
    recording (they predate this layer and back the paper's figures).
    """
    prev_reg, prev_trace = REGISTRY.enabled, TRACER.enabled
    REGISTRY.enabled = False
    TRACER.enabled = False
    try:
        yield
    finally:
        REGISTRY.enabled = prev_reg
        TRACER.enabled = prev_trace
