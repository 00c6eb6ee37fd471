"""Server throughput: concurrent serving vs sequential engine queries.

Not a paper figure — this benchmarks the serving layer the ROADMAP's
north star asks for.  Shape claims:

* a 4-worker server with result caching sustains a multiple of the
  single-threaded sequential QPS on a Zipf-skewed (hotspot) workload;
* the result cache absorbs the hot set (hit rate well above half);
* tail latency stays bounded (p99 under tens of milliseconds at this
  scale).

The workbench warm-starts from the shared benchmark store, so serve
time performs zero index builds (asserted via ``BUILD_COUNTERS``).
"""

from repro.engine import QueryEngine
from repro.objects import uniform_objects
from repro.server import (
    KNNServer,
    hotspot_workload,
    run_closed_loop,
    sequential_baseline,
    uniform_workload,
)
from repro.utils.counters import BUILD_COUNTERS

from _bench_utils import run_once
from report import write_report

REQUESTS = 600
K = 5


def _engine(nw):
    objects = uniform_objects(nw.graph, 0.01, seed=0)
    return QueryEngine(nw, objects=objects)


def test_server_hotspot_throughput(benchmark, nw):
    import time

    run_started = time.time()
    engine = _engine(nw)
    items = hotspot_workload(
        nw.graph, REQUESTS, K, hot_vertices=64, skew=1.2, seed=3
    )
    baseline_qps, _ = sequential_baseline(engine, items)
    server = KNNServer(engine, workers=4)
    server.start(warmup_methods=["auto"])
    builds_before = sum(BUILD_COUNTERS.as_dict().values())

    def drive():
        server.cache.invalidate()  # each round re-fills the cache
        return run_closed_loop(server, items, concurrency=16)

    try:
        report = run_once(benchmark, drive)
    finally:
        server.stop()
    print()
    print(
        f"sequential {baseline_qps:8.0f} qps | server "
        f"{report.throughput_qps:8.0f} qps ({report.throughput_qps / baseline_qps:.1f}x) | "
        f"p50 {report.latency_p50_ms:.2f}ms p99 {report.latency_p99_ms:.2f}ms | "
        f"cache hit rate {report.server_stats['cache']['hit_rate']:.0%}"
    )
    write_report(
        "BENCH_server_throughput.json",
        {
            "bench": "server_throughput",
            "requests": REQUESTS,
            "k": K,
            "baseline_qps": baseline_qps,
            "hotspot": report.to_dict(),
        },
        run_started,
    )
    assert sum(BUILD_COUNTERS.as_dict().values()) == builds_before
    assert report.completed == REQUESTS
    assert report.throughput_qps > 2 * baseline_qps
    assert report.server_stats["cache"]["hit_rate"] > 0.5
    assert report.latency_p99_ms < 100.0


def test_server_uniform_throughput(benchmark, nw):
    """Cache-hostile floor: uniform traffic, caching barely helps."""
    engine = _engine(nw)
    items = uniform_workload(nw.graph, REQUESTS, K, seed=3)
    server = KNNServer(engine, workers=4)
    server.start(warmup_methods=["auto"])
    try:
        report = run_once(
            benchmark, lambda: run_closed_loop(server, items, concurrency=16)
        )
    finally:
        server.stop()
    assert report.completed == REQUESTS
    assert report.throughput_qps > 0
