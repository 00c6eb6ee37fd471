"""Tests for the unified observability layer (`repro.obs`)."""

from __future__ import annotations

import random
import threading

import pytest

from repro import obs
from repro.engine.engine import QueryEngine
from repro.graph.generators import road_network
from repro.obs import (
    LATENCY_BUCKETS_S,
    REGISTRY,
    TRACER,
    Histogram,
    quantile_from_buckets,
    record_query,
    span,
    traced,
    tracing,
)
from repro.objects import uniform_objects
from repro.utils.counters import Counters


@pytest.fixture(autouse=True)
def clean_obs():
    REGISTRY.reset()
    TRACER.clear()
    yield
    REGISTRY.reset()
    TRACER.clear()
    TRACER.enabled = False
    TRACER.slow_threshold_s = None
    REGISTRY.enabled = True


@pytest.fixture(scope="module")
def engine():
    graph = road_network(400, seed=5)
    objects = uniform_objects(graph, 0.03, seed=5, minimum=5)
    return QueryEngine(graph, objects)


# ----------------------------------------------------------------------
# Histogram bucket math and quantile properties
# ----------------------------------------------------------------------
class TestHistogram:
    def test_observations_land_in_correct_buckets(self):
        h = Histogram([0.001, 0.01, 0.1])
        for v in (0.0005, 0.005, 0.05, 0.5):
            h.observe(v)
        assert h.bucket_counts() == [1, 1, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(0.5555)

    def test_boundary_value_goes_to_its_le_bucket(self):
        # Prometheus semantics: buckets are cumulative upper bounds (le).
        h = Histogram([0.001, 0.01])
        h.observe(0.001)
        assert h.bucket_counts() == [1, 0, 0]

    def test_quantiles_track_true_percentiles(self):
        h = Histogram(LATENCY_BUCKETS_S)
        rng = random.Random(11)
        samples = sorted(rng.uniform(1e-4, 0.5) for _ in range(4000))
        for s in samples:
            h.observe(s)
        for q in (0.5, 0.9, 0.95, 0.99):
            true = samples[int(q * (len(samples) - 1))]
            # Log-spaced buckets bound the relative interpolation error.
            assert h.quantile(q) == pytest.approx(true, rel=0.5)

    def test_quantiles_are_monotone_and_bounded_by_extrema(self):
        h = Histogram(LATENCY_BUCKETS_S)
        rng = random.Random(3)
        for _ in range(500):
            h.observe(rng.uniform(1e-5, 2.0))
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert qs == sorted(qs)
        assert h.min <= qs[0] and qs[-1] <= h.max

    def test_overflow_bucket_quantile_clamps_to_max(self):
        h = Histogram([0.001])
        h.observe(5.0)
        h.observe(7.0)
        assert h.quantile(0.99) == pytest.approx(7.0)

    def test_empty_histogram(self):
        h = Histogram(LATENCY_BUCKETS_S)
        assert h.count == 0
        assert h.quantile(0.5) == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["p99"] == 0.0

    def test_quantile_from_buckets_interpolates_within_bucket(self):
        # 100 observations in (0.01, 0.1]: p50 sits mid-bucket.
        value = quantile_from_buckets(
            [0.01, 0.1], [0, 100, 0], 0.5, maximum=0.1, minimum=0.01
        )
        assert 0.01 < value < 0.1

    def test_snapshot_quantile_keys(self):
        h = Histogram(LATENCY_BUCKETS_S)
        h.observe(0.02)
        snap = h.snapshot()
        for key in ("count", "sum", "mean", "min", "max", "p50", "p95", "p99"):
            assert key in snap


# ----------------------------------------------------------------------
# Registry: families, labels, delta, reset, thread-safety, Prometheus
# ----------------------------------------------------------------------
class TestRegistry:
    def test_labeled_children_are_distinct(self):
        REGISTRY.counter("c_total", "t", method="ine").inc(2)
        REGISTRY.counter("c_total", "t", method="gtree").inc(3)
        assert REGISTRY.counter("c_total", method="ine").value == 2
        assert REGISTRY.counter("c_total", method="gtree").value == 3

    def test_kind_mismatch_raises(self):
        REGISTRY.counter("mixed_up", "t").inc()
        with pytest.raises(ValueError):
            REGISTRY.histogram("mixed_up", "t")

    def test_delta_rederives_windowed_quantiles(self):
        h = REGISTRY.histogram("win_seconds", "t")
        h.observe(0.001)
        before = REGISTRY.snapshot()
        h.observe(0.2)
        h.observe(0.3)
        window = REGISTRY.delta(before)["win_seconds"]["series"][""]
        assert window["count"] == 2
        # The 0.001 observation is outside the window: its median is not.
        assert window["p50"] > 0.1

    def test_reset_zeroes_everything(self):
        REGISTRY.counter("gone_total", "t").inc(9)
        REGISTRY.histogram("gone_seconds", "t").observe(0.5)
        REGISTRY.reset()
        assert REGISTRY.counter("gone_total").value == 0
        assert REGISTRY.histogram("gone_seconds").count == 0

    def test_concurrent_increments_are_not_lost(self):
        h = REGISTRY.histogram("race_seconds", "t")
        c = REGISTRY.counter("race_total", "t")

        def hammer():
            for _ in range(2000):
                c.inc()
                h.observe(0.01)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 16000
        assert h.count == 16000
        assert sum(h.bucket_counts()) == 16000

    def test_prometheus_text_format(self):
        REGISTRY.counter("req_total", "requests", method="ine").inc(4)
        REGISTRY.histogram("lat_seconds", "latency").observe(0.02)
        text = REGISTRY.to_prometheus()
        assert '# TYPE repro_req_total counter' in text
        assert 'repro_req_total{method="ine"} 4' in text
        assert '# TYPE repro_lat_seconds histogram' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert 'repro_lat_seconds_count 1' in text


# ----------------------------------------------------------------------
# Tracing: nesting, exceptions, ring buffer, decorator
# ----------------------------------------------------------------------
class TestTracing:
    def test_nesting_follows_call_structure(self):
        with tracing(clear=True):
            with span("root") as root:
                with span("a"):
                    with span("a1"):
                        pass
                with span("b"):
                    pass
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["a1"]
        assert TRACER.recent(1)[0] is root

    def test_exception_records_error_and_unwinds_stack(self):
        with tracing(clear=True):
            with pytest.raises(ValueError):
                with span("outer"):
                    with span("inner"):
                        raise ValueError("boom")
            assert TRACER.current() is None
            root = TRACER.recent(1)[0]
            assert root.name == "outer"
            assert root.children[0].error == "ValueError: boom"
            assert root.error == "ValueError: boom"
            # The tracer still works after the exception.
            with span("after"):
                pass
            assert TRACER.recent(1)[0].name == "after"

    def test_disabled_spans_are_noops(self):
        assert not TRACER.enabled
        s = span("nothing")
        assert s is obs.NOOP_SPAN
        with s:
            s.annotate(k=1)
        assert TRACER.recent() == []

    def test_ring_buffer_is_bounded(self):
        with tracing(clear=True):
            for i in range(TRACER._ring.maxlen + 50):
                with span(f"s{i}"):
                    pass
            recent = TRACER.recent()
            assert len(recent) == TRACER._ring.maxlen
            assert recent[-1].name == f"s{TRACER._ring.maxlen + 49}"

    def test_traced_decorator(self):
        @traced("decorated")
        def work(x):
            return x * 2

        assert work(3) == 6  # disabled: plain call
        with tracing(clear=True):
            assert work(4) == 8
            assert TRACER.recent(1)[0].name == "decorated"

    def test_pretty_and_to_dict(self):
        with tracing(clear=True):
            with span("query", vertex=7) as root:
                with span("knn") as s:
                    s.annotate(expand_settled=12)
        text = root.pretty()
        assert "query" in text and "vertex=7" in text and "knn" in text
        d = root.to_dict()
        assert d["attrs"]["vertex"] == 7
        assert d["children"][0]["attrs"]["expand_settled"] == 12


# ----------------------------------------------------------------------
# Slow-query log thresholding via record_query
# ----------------------------------------------------------------------
class TestSlowQueryLog:
    def test_threshold_filters_fast_queries(self):
        TRACER.slow_threshold_s = 0.01
        c = Counters()
        record_query("ine", 0.001, c)   # below threshold
        record_query("ine", 0.02, c)    # above
        record_query("ine", 0.01, c)    # at threshold: included
        slow = TRACER.slow_queries()
        assert [r["time_s"] for r in slow] == [0.02, 0.01]
        assert TRACER.top_slow(1)[0]["time_s"] == 0.02

    def test_none_threshold_disables_capture(self):
        assert TRACER.slow_threshold_s is None
        record_query("ine", 100.0, Counters())
        assert TRACER.slow_queries() == []

    def test_record_query_flushes_counters_into_registry(self):
        c = Counters()
        c.add("expand_settled", 42)
        record_query("ine", 0.005, c, vertex=1, k=3)
        assert (
            REGISTRY.counter(
                "knn_counter_total", method="ine", counter="expand_settled"
            ).value
            == 42
        )
        assert REGISTRY.histogram("knn_query_seconds", method="ine").count == 1

    def test_disabled_skips_registry_but_not_answers(self):
        with obs.disabled():
            record_query("ine", 0.005, Counters())
        assert REGISTRY.histogram("knn_query_seconds", method="ine").count == 0


# ----------------------------------------------------------------------
# Counter-name scheme
# ----------------------------------------------------------------------
class TestCounterAliases:
    def test_engine_queries_record_scheme_names(self, engine):
        phases = {
            "expand", "sssp", "bidir", "leaf", "matrix", "euclid",
            "verify", "interval", "browse", "table", "local", "label",
        }
        for method in ("ine", "gtree", "road", "ier-gt"):
            result = engine.query(10, 3, method=method)
            names = set(result.counters.as_dict())
            assert names, method
            assert {n.split("_", 1)[0] for n in names} <= phases, names
        assert engine.query(10, 3, method="ine").counters["expand_settled"] > 0


# ----------------------------------------------------------------------
# Engine and server wiring
# ----------------------------------------------------------------------
class TestWiring:
    def test_query_span_tree_and_identical_answers(self, engine):
        with tracing(clear=True):
            traced_result = engine.query(20, 4, method="ine")
            root = TRACER.recent(1)[0]
        assert root.name == "query"
        assert {c.name for c in root.children} >= {"plan", "knn"}
        with obs.disabled():
            plain = engine.query(20, 4, method="ine")
        assert [(n.distance, n.vertex) for n in traced_result.neighbors] == [
            (n.distance, n.vertex) for n in plain.neighbors
        ]

    def test_query_flushes_method_labeled_metrics(self, engine):
        engine.query(15, 3, method="gtree")
        assert (
            REGISTRY.histogram("knn_query_seconds", method="gtree").count == 1
        )
        assert REGISTRY.counter("knn_queries_total", method="gtree").value == 1

    def test_server_stats_split_and_metrics_text(self, engine):
        from repro.server import KNNServer

        with KNNServer(engine, workers=2) as server:
            for _ in range(3):
                assert server.query(9, k=2).ok
            first = server.stats()
            assert first["counts"]["ok"] == 3
            assert first["since_flush"]["counts"]["ok"] == 3
            flushed = server.flush_stats()
            assert flushed["since_flush"]["counts"]["ok"] == 3
            assert server.query(9, k=2).ok
            second = server.stats()
            # Lifetime keeps counting; the window restarts at the flush.
            assert second["counts"]["ok"] == 4
            assert second["since_flush"]["counts"]["ok"] == 1
            assert second["since_flush"]["cache"]["hits"] == 1
            text = server.metrics_text()
        assert "repro_server_queue_wait_seconds_bucket" in text
        assert 'repro_server_requests_total{status="ok"} 4' in text
        assert 'repro_server_cache_requests_total{outcome="hit"}' in text


# ----------------------------------------------------------------------
# CLI: trace
# ----------------------------------------------------------------------
class TestCLI:
    def test_trace_command(self, capsys):
        from repro.cli import main

        assert main(["trace", "--vertices", "300", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "-- cold --" in out and "-- warm --" in out
        assert "query" in out and "knn" in out
