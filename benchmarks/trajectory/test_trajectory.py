"""Self-test of the benchmark (``pytest benchmarks/trajectory -q``).

Outside tier-1 (``testpaths`` is ``tests``).  Checks what a wrong number
could hide behind: seed-determinism of the generated inputs, the
estimators and self-time arithmetic on synthetic data, the oracle's tie
rule, the API guard, the compare verdicts — and, at ``--quick`` size,
that every workload runs end to end and every metric named in
``BENCHMARK.json`` comes out with its unit.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np
import pytest

import run  # noqa: F401  (puts src/ on sys.path)
import apicheck
import compare
import driver
import estimators
import oracle
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
SPEC = run.spec()


# ----------------------------------------------------------------------
# BENCHMARK.json and the workload table agree
# ----------------------------------------------------------------------
def test_spec_names_the_workloads_with_their_why():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS
    ]
    assert SPEC["paths"] == ["benchmarks/trajectory"]
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in wl.WORKLOADS)


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# ----------------------------------------------------------------------
# Inputs are a function of the seed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", wl.WORKLOADS, ids=lambda w: w.name)
def test_streams_are_seed_deterministic(workload):
    hot = wl.hot_set(workload, 7, workload.vertices)
    a = wl.slice_ops(workload, 7, 0, 3, workload.vertices, hot)
    b = wl.slice_ops(workload, 7, 0, 3, workload.vertices, hot)
    other_seed = wl.slice_ops(
        workload, 8, 0, 3, workload.vertices,
        wl.hot_set(workload, 8, workload.vertices),
    )
    other_client = wl.slice_ops(workload, 7, 1, 3, workload.vertices, hot)
    assert a == b
    assert a != other_seed and a != other_client
    assert len(a) == workload.slice_ops
    # Every slice is the same blend of methods.
    for method, count in workload.mix:
        assert sum(1 for _, m in a if m == method) == count
    if hot is not None:
        assert {v for v, _ in a} <= set(hot.tolist())


def test_update_batches_are_seed_deterministic_and_valid():
    workload = wl.BY_NAME["serve-mixed"]
    starts = np.array([0, 2, 4, 6, 8])
    targets = np.array([1, 3, 0, 2, 1, 3, 0, 2])  # a 4-cycle
    weights = np.array([1.0, 4.0, 1.0, 2.0, 2.0, 3.0, 4.0, 3.0])

    def batches(seed):
        stream = wl.UpdateStream(workload, seed, starts, targets, weights, [0, 2])
        return [stream.next_batch() for _ in range(5)], stream

    first, stream = batches(3)
    again, _ = batches(3)
    other, _ = batches(4)
    assert first == again and first != other
    # The shadow stays a symmetric graph within the drift band, and the
    # object count stays within one of where it began.
    assert len(stream.present) in (1, 2)
    for u in range(4):
        for e in range(starts[u], starts[u + 1]):
            v = targets[e]
            back = [f for f in range(starts[v], starts[v + 1]) if targets[f] == u]
            assert stream.edge_weight[e] == stream.edge_weight[back[0]]
            assert 0.5 * weights[e] <= stream.edge_weight[e] <= 2.0 * weights[e]


def test_settle_applies_the_workloads_batches_in_stream_order():
    from dataclasses import replace
    from types import SimpleNamespace

    workload = replace(wl.BY_NAME["serve-mixed"], settle_batches=3)
    starts = np.array([0, 2, 4, 6, 8])
    targets = np.array([1, 3, 0, 2, 1, 3, 0, 2])
    weights = np.array([1.0, 4.0, 1.0, 2.0, 2.0, 3.0, 4.0, 3.0])

    def stream():
        return wl.UpdateStream(
            workload, wl.UPDATE_SEED, starts, targets, weights, [0, 2]
        )

    applied = []
    server = SimpleNamespace(apply_updates=applied.append)
    driver.settle(SimpleNamespace(workload=workload, server=server, updates=stream()))
    expected = stream()
    assert applied == [expected.next_batch() for _ in range(3)]
    # Read-only workloads have nothing to settle.
    assert all(w.settle_batches == 0 for w in wl.WORKLOADS if not w.updating)


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def test_summary_uses_the_drivers_quartiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    got = estimators.summary(values)
    assert (got["n"], got["median"], got["q1"], got["q3"]) == (10, 14.5, q1, q3)
    assert got["spread"] == pytest.approx((q3 - q1) / 14.5)
    assert estimators.summary([7.0]) == {
        "n": 1, "median": 7.0, "q1": 7.0, "q3": 7.0, "spread": 0.0,
    }


def test_quiet_pool_skips_the_ramp_and_the_very_fastest_slices():
    # 50 equal slices of 250 ops.  Slices 0..9 are the ramp (20%): slice
    # 3, the fastest of all, must be ignored.  Of the other 40 the two
    # fastest (5%) are trimmed as a possible lock-step regime; the next
    # five hold 10% of the ops (1,250 >= 1,000).
    walls = [1.0] * 50
    walls[3] = 0.1
    fast = {20: 0.30, 21: 0.31, 30: 0.50, 31: 0.51, 32: 0.52, 33: 0.53, 34: 0.54}
    for i, w in fast.items():
        walls[i] = w
    assert sorted(driver.quiet_pool(walls, [250] * 50)) == [30, 31, 32, 33, 34]
    # Few slices: nothing to trim, and the floor of 1,000 ops decides.
    walls = [1.0, 0.2, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.35]
    assert sorted(driver.quiet_pool(walls, [256] * 10)) == [6, 7, 8, 9]
    # A slice that lost ops to failures is ranked by time per op.
    walls, ops = [1.0] * 20, [1000] * 20
    walls[9], ops[9] = 0.9, 500  # 1.8 ms/op: slower, not faster
    walls[7] = 0.95
    assert driver.quiet_pool(walls, ops)[0] == 7


def test_paired_ratio_alternates_the_order_and_takes_the_median():
    calls = []

    def side(name, cost):
        def timed(i):
            calls.append((i, name))
            return cost[i]
        return timed

    ratio = estimators.paired_median_ratio(
        side("a", [1.0, 1.0, 1.0, 1.0]), side("b", [1.1, 5.0, 1.1, 1.1]), 4
    )
    assert ratio == pytest.approx(1.1)  # one noisy pair does not move it
    assert calls == [
        (0, "a"), (0, "b"), (1, "b"), (1, "a"),
        (2, "a"), (2, "b"), (3, "b"), (3, "a"),
    ]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def span(name, start, end, parent=None):
    s = tracing.Span(name, start, parent, 1)
    s.end = end
    return s


def test_self_time_is_duration_minus_covered_children():
    root = span("server.request", 0.0, 10.0)
    wait = span("server.queue_wait", 0.0, 2.0, root)
    get = span("server.cache_get", 2.0, 3.0, root)
    query = span("engine.query", 3.0, 9.0, root)
    knn = span("knn.query{ine}", 4.0, 8.0, query)
    # Two overlapping grandchildren and one leaking past its parent.
    d1 = span("index.gtree_oracle.distance", 4.0, 6.0, knn)
    d2 = span("index.gtree_oracle.distance", 5.0, 7.0, knn)
    d3 = span("index.gtree_oracle.distance", 7.5, 9.0, knn)
    spans = [root, wait, get, query, knn, d1, d2, d3]
    selfs = tracing.self_times(spans)
    assert selfs[id(root)] == pytest.approx(10 - 2 - 1 - 6)
    assert selfs[id(query)] == pytest.approx(6 - 4)
    assert selfs[id(knn)] == pytest.approx(4 - (3 + 0.5))  # union, clipped
    by_name = tracing.self_time_by_name(spans)
    assert by_name["index.gtree_oracle.distance"] == pytest.approx(2 + 2 + 1.5)


def test_recorder_nests_per_thread_and_attaches_workers_to_the_request():
    import threading

    rec = tracing.Recorder()

    class Cache:
        def get(self, key):
            return None

        def put(self, key, value):
            pass

    cache = Cache()
    rec.wrap_cache(cache)
    root = rec.begin_request("server.request")
    worker = threading.Thread(target=lambda: (cache.get("k"), cache.put("k", 1)))
    worker.start()
    worker.join()
    rec.end_request(root)
    names = [(s.name, s.parent is root) for s in rec.spans]
    assert names == [
        ("server.request", False), ("server.cache_get", True),
        ("server.queue_wait", True), ("server.cache_put", True),
    ]
    assert {s.request for s in rec.spans} == {root.request}
    rec.unwrap_all()
    assert "get" not in vars(cache) and "put" not in vars(cache)


# ----------------------------------------------------------------------
# The oracle's tie rule
# ----------------------------------------------------------------------
def test_tie_rule():
    # A star: centre 0, leaves 1..4 at distance 1, 1, 2, 3.
    starts = np.array([0, 4, 5, 6, 7, 8])
    targets = np.array([1, 2, 3, 4, 0, 0, 0, 0])
    weights = np.array([1.0, 1.0, 2.0, 3.0, 1.0, 1.0, 2.0, 3.0])
    orc = oracle.Oracle(starts, targets, weights, objects=[1, 2, 3, 4])

    def wrong(answer):
        return orc.mismatches([0], [answer], 2)

    assert wrong([(1.0, 1), (1.0, 2)]) == []
    assert wrong([(1.0, 2), (1.0, 1)]) == []  # order inside a tie is free
    assert wrong([(1.0, 1), (1.0 + 1e-13, 2)]) == []  # last-ulp noise
    assert wrong([(1.0, 1), (2.0, 3)])  # wrong distance
    assert wrong([(1.0, 1), (1.0, 3)])  # right distance, wrong vertex
    assert wrong([(1.0, 1), (1.0, 1)])  # a vertex twice
    assert wrong([(1.0, 1)])  # too few
    # k beyond the object count: all four, no more.
    assert orc.mismatches([0], [[(1.0, 1), (1.0, 2), (2.0, 3), (3.0, 4)]], 9) == []


# ----------------------------------------------------------------------
# API guard
# ----------------------------------------------------------------------
def test_benchmark_sources_use_no_api_slated_for_deletion():
    assert apicheck.forbidden_uses(HERE) == []


def test_api_guard_flags_each_forbidden_use(tmp_path):
    # Spelled in pieces so that this file passes the guard itself.
    (tmp_path / "bad.py").write_text(
        "engine = QueryEngine(graph, objects, ker" "nel='array')\n"
        "from repro.experiments.runner import Work" "bench\n"
        "for d, v in res" "ult:\n"
        "    pass\n"
        "n = counters['ine_" "settled']\n"
        "store = Index" "Store(root, format='flat')\n"
        "from _bench" "_utils import shared_store\n"
    )
    found = apicheck.forbidden_uses(tmp_path)
    assert len(found) == 6
    for what in apicheck.FORBIDDEN:
        assert any(what in line for line in found), what


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def write_reports(directory, kind, workload, metric, values, quick=False):
    directory.mkdir(exist_ok=True)
    unit = {m["name"]: m["unit"] for m in SPEC[kind]}[metric]
    for i, value in enumerate(values):
        (directory / f"{kind}-{workload}-seed{i}-{metric}.json").write_text(json.dumps({
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {metric: {"value": value, "unit": unit}},
            "meta": {"kind": kind, "workload": workload, "seed": i, "quick": quick},
        }))


def test_compare_verdicts(tmp_path):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    a, b = tmp_path / "a", tmp_path / "b"
    write_reports(a, "end_to_end", "engine-dense", "latency_p50_us", steady)
    write_reports(b, "end_to_end", "engine-dense", "latency_p50_us", [v * 1.5 for v in steady])
    write_reports(a, "end_to_end", "engine-dense", "throughput_qps", steady)
    write_reports(b, "end_to_end", "engine-dense", "throughput_qps", [v * 1.5 for v in steady])
    write_reports(a, "end_to_end", "engine-sparse", "cpu_us_per_op", steady)
    write_reports(b, "end_to_end", "engine-sparse", "cpu_us_per_op",
                  [40, 160, 50, 150, 60, 140, 70, 130, 100, 100])
    rows = compare.compare(
        compare.load_side(a, "end_to_end"), compare.load_side(b, "end_to_end"),
        SPEC, "end_to_end",
    )
    got = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert got == {
        ("engine-dense", "latency_p50_us"): "regressed",  # 50% slower
        ("engine-dense", "throughput_qps"): "ok",  # 50% more is better
        ("engine-sparse", "cpu_us_per_op"): "unresolved",  # B too noisy
    }
    ratio = next(r for r in rows if r["metric"] == "latency_p50_us")
    assert ratio["ratio"] == pytest.approx(1.5)
    assert "of 100" in compare.render(rows)  # the base is printed
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0


def test_compare_refuses_the_wrong_kind_and_mixed_sizes(tmp_path):
    a = tmp_path / "a"
    write_reports(a, "per_layer", "engine-dense", "engine.self_us", [1.0, 2.0])
    traced = next(a.glob("*.json"))
    with pytest.raises(ValueError, match="not 'end_to_end'"):
        compare.load_report(traced, "end_to_end")
    with pytest.raises(ValueError, match="no end_to_end reports"):
        compare.load_side(a, "end_to_end")
    write_reports(a, "end_to_end", "engine-dense", "setup_s", [1.0])
    write_reports(a, "end_to_end", "engine-sparse", "setup_s", [1.0], quick=True)
    with pytest.raises(ValueError, match="mixes"):
        compare.load_side(a, "end_to_end")


# ----------------------------------------------------------------------
# Every workload runs; every metric comes out with its unit
# ----------------------------------------------------------------------
def last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w.name for w in wl.WORKLOADS])
def test_quick_end_to_end_run(workload, tmp_path, capsys):
    code = run.main([
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", "0", "--quick", "--out", str(tmp_path),
    ])
    summary = last_line(capsys)
    assert code == 0 and summary["correct"] and summary["failed"] == 0
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    (report,) = [json.loads(p.read_text()) for p in tmp_path.glob("end_to_end-*.json")]
    assert report["meta"]["kind"] == "end_to_end" and report["meta"]["quick"]
    assert report["details"]["serve_time_builds"] == 0
    assert not list(tmp_path.glob("store-*"))  # scratch stores are removed


@pytest.mark.parametrize("workload", ["engine-sparse", "serve-mixed"])
def test_quick_traced_run(workload, tmp_path, capsys):
    code = run.main([
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", "1", "--quick", "--out", str(tmp_path),
    ])
    summary = last_line(capsys)
    assert code == 0 and summary["correct"]
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    (report,) = [json.loads(p.read_text()) for p in tmp_path.glob("per_layer-*.json")]
    assert report["details"]["coverage"] >= 0.9
    spans = [
        json.loads(line)
        for line in (tmp_path / f"trace-{workload}.jsonl").read_text().splitlines()
    ]
    assert {"id", "name", "start", "end", "parent", "request"} == set(spans[0])
    names = {s["name"] for s in spans}
    assert {"engine.query", "server.request", "server.queue_wait",
            "server.cache_get", "server.cache_put",
            "server.apply_updates", "engine.apply_updates"} <= names
    if workload == "engine-sparse":
        # The predicted bypass: IER over the G-tree oracle, no INE kernel.
        calls = report["details"]["calls_per_op"]
        assert calls["index.gtree_oracle.distance"] > 0
        assert calls["spatial.rtree.next"] > 0
        assert summary["metrics"]["kernels.settled_per_query"]["value"] == 0
