"""The shared CI report checker accepts green reports and rejects drift.

Each bench kind gets a minimal *passing* fixture (the fields the real
benchmarks emit) plus targeted mutations that must raise
:class:`CheckFailure` — so a report-schema regression (renamed key,
dropped section, silently-failing gate) turns red here before it turns
green-but-meaningless in CI.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from check_report import CheckFailure, check_report  # noqa: E402

META = {"schema_version": 1}


def server_report():
    return {
        "bench": "server_loadtest",
        "requests": 200,
        "completed": 200,
        "serve_time_index_builds": 0,
        "throughput_qps": 1234.5,
        "speedup": 1.5,
        "latency_ms": {"p50": 1.0, "p95": 2.0, "p99": 3.0, "mean": 1.2},
        "server": {"cache": {"hit_rate": 0.9}},
    }


def updates_report():
    return {
        "bench": "updates",
        "meta": dict(META),
        "failures": [],
        "equivalence": {
            "gtree_matrices_identical": True,
            "road_matrices_identical": True,
            "answers_identical": {"ine": True, "gtree": True},
        },
        "speedup": {
            "meets_5x_floor": True,
            "speedup": 6.4,
            "weight_repair_speedup_vs_gtree_build": 90.0,
        },
    }


def obs_report():
    return {
        "bench": "obs",
        "meta": dict(META),
        "failures": [],
        "budget": 0.10,
        "methods": {
            "ine": {"overhead_on": 0.017},
            "gtree": {"overhead_on": -0.004},
        },
    }


def profile_report():
    return {
        "meta": dict(META),
        "per_method": {"ine": {"p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 3.0}},
        "traces": [
            {"name": "request", "children": [{"name": "knn"}]},
        ],
        "server": {"cache": {"hit_rate": 0.8}},
        "throughput_qps": 6000.0,
    }


def chaos_report():
    return {
        "bench": "chaos",
        "meta": dict(META),
        "failures": [],
        "availability": 1.0,
        "answers": {"wrong": 0, "degraded": 10},
        "breaker_ine": {"opened_total": 1, "state": "closed"},
        "worker_restarts": 1,
        "quarantined": {"gtree": 1},
    }


def scale_report():
    return {
        "bench": "scale",
        "mode": "full",
        "meta": dict(META),
        "failures": [],
        "equivalence": {
            "checks": {
                "arrays_identical": True,
                "fingerprint_identical": True,
                "knn_identical": True,
                "local_matches_ine": True,
            },
        },
        "scale": {
            "ingest": {"num_vertices": 1_102_500},
            "answers_identical": True,
            "rss_gate": {
                "passed": True,
                "mmap_anon_delta_bytes": 1 << 20,
                "limit_bytes": 39 << 20,
                "footprint_bytes": 79 << 20,
            },
            "probes": {"mmap": {"load_s": 0.003}},
        },
    }


FIXTURES = {
    "server": server_report,
    "updates": updates_report,
    "obs": obs_report,
    "profile": profile_report,
    "chaos": chaos_report,
    "scale": scale_report,
}

#: (bench, path-into-report, bad value) triples that must fail.
MUTATIONS = [
    ("server", ("completed",), 199),
    ("server", ("serve_time_index_builds",), 1),
    ("server", ("latency_ms", "p50"), None, "drop"),
    ("updates", ("failures",), ["boom"]),
    ("updates", ("speedup", "meets_5x_floor"), False),
    ("updates", ("equivalence", "gtree_matrices_identical"), False),
    ("obs", ("meta", "schema_version"), 2),
    ("obs", ("methods", "ine", "overhead_on"), 0.5),
    ("profile", ("per_method",), {}),
    ("profile", ("traces",), [{"name": "request"}]),
    ("profile", ("server", "cache"), {}),
    ("chaos", ("availability",), 0.5),
    ("chaos", ("answers", "wrong"), 3),
    ("chaos", ("breaker_ine", "state"), "open"),
    ("chaos", ("quarantined",), {}),
    ("scale", ("equivalence", "checks", "knn_identical"), False),
    ("scale", ("scale", "rss_gate", "passed"), False),
    ("scale", ("scale", "answers_identical"), False),
    ("scale", ("scale", "ingest", "num_vertices"), 500_000),
    ("scale", ("bench",), "wrong-tag"),
]


@pytest.mark.parametrize("bench", sorted(FIXTURES))
def test_green_report_passes(bench):
    summary = check_report(bench, FIXTURES[bench]())
    assert summary.startswith("ok:")


@pytest.mark.parametrize(
    "bench,path,value,action",
    [(m + ("set",))[:4] for m in MUTATIONS],
    ids=[f"{m[0]}-{'.'.join(m[1])}" for m in MUTATIONS],
)
def test_mutated_report_fails(bench, path, value, action):
    report = copy.deepcopy(FIXTURES[bench]())
    node = report
    for key in path[:-1]:
        node = node[key]
    if action == "drop":
        del node[path[-1]]
    else:
        node[path[-1]] = value
    with pytest.raises(CheckFailure):
        check_report(bench, report)


def test_unknown_bench_rejected():
    with pytest.raises(CheckFailure):
        check_report("nonsense", {})


def test_missing_field_is_a_check_failure():
    # A renamed/dropped section must surface as CheckFailure (exit 1),
    # not an anonymous KeyError traceback.
    report = updates_report()
    del report["speedup"]
    with pytest.raises(CheckFailure):
        check_report("updates", report)


def test_quick_scale_report_skips_vertex_floor():
    report = scale_report()
    report["mode"] = "quick"
    report["scale"]["ingest"]["num_vertices"] = 160_000
    assert check_report("scale", report).startswith("ok:")
