#!/usr/bin/env python
"""Assert the invariants of a ``BENCH_*.json`` / ``PROFILE.json`` report.

One entry point replaces the per-job ``python - <<'EOF'`` heredocs the
CI workflow used to carry: every smoke leg runs its benchmark, then::

    python benchmarks/check_report.py <bench> <report.json>

``<bench>`` is one of ``server``, ``updates``, ``obs``,
``profile``, ``chaos``, ``scale``.  Each checker re-asserts what its
benchmark already gated at run time — a report that *reads* green must
also *check* green, so a report-writing regression (dropped field,
renamed key, silently-skipped section) fails CI even when the benchmark
exited zero.  Shared envelope checks (``meta.schema_version``, an empty
``failures`` list, the ``bench`` tag) run for every kind that carries
the field.

Checkers print a one-line ``ok:`` summary and raise
:class:`CheckFailure` with a readable message otherwise; the CLI exits
non-zero on any failure.  ``tests/test_check_report.py`` pins both
directions on fixture reports.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Dict


class CheckFailure(AssertionError):
    """A report violated one of its invariants."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _shared_checks(report: Dict, expect_bench: str = "") -> None:
    if "meta" in report:
        _require(
            report["meta"].get("schema_version") == 1,
            f"meta.schema_version != 1: {report['meta'].get('schema_version')!r}",
        )
    if "failures" in report:
        _require(
            report["failures"] == [],
            f"failures recorded: {report['failures']}",
        )
    if expect_bench:
        _require(
            report.get("bench") == expect_bench,
            f"bench tag {report.get('bench')!r} != {expect_bench!r}",
        )


def check_server(report: Dict) -> str:
    _shared_checks(report, "server_loadtest")
    _require(
        report["completed"] == report["requests"],
        f"completed {report['completed']} != requested {report['requests']}",
    )
    _require(
        report["serve_time_index_builds"] == 0,
        f"{report['serve_time_index_builds']} indexes were built on "
        f"the serve path",
    )
    _require(report["throughput_qps"] > 0, "throughput_qps is zero")
    _require(
        set(report["latency_ms"]) == {"p50", "p95", "p99", "mean"},
        f"latency_ms keys: {sorted(report['latency_ms'])}",
    )
    return (
        f"ok: {report['throughput_qps']} qps, speedup {report['speedup']}"
    )


def check_updates(report: Dict) -> str:
    _shared_checks(report, "updates")
    eq = report["equivalence"]
    _require(
        eq["gtree_matrices_identical"], "gtree matrices differ after repair"
    )
    _require(
        eq["road_matrices_identical"], "road matrices differ after repair"
    )
    _require(
        all(eq["answers_identical"].values()),
        f"answers differ after repair: {eq['answers_identical']}",
    )
    speedup = report["speedup"]
    _require(
        speedup["meets_5x_floor"],
        f"repair speedup below 5x floor: {speedup}",
    )
    return (
        f"ok: repair {speedup['speedup']:.1f}x vs rebuild, weight repair "
        f"{speedup['weight_repair_speedup_vs_gtree_build']:.1f}x "
        f"vs gtree build"
    )


def check_obs(report: Dict) -> str:
    _shared_checks(report, "obs")
    for method, row in report["methods"].items():
        _require(
            row["overhead_on"] <= report["budget"],
            f"{method}: observability overhead {row['overhead_on']:+.1%} "
            f"over budget {report['budget']:.1%}",
        )
    summary = {
        m: f"{r['overhead_on']:+.1%}" for m, r in report["methods"].items()
    }
    return f"ok: {summary}"


def check_profile(report: Dict) -> str:
    _shared_checks(report)
    _require(bool(report["per_method"]), "no per-method latency rows")
    for method, row in report["per_method"].items():
        _require(
            row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"],
            f"{method}: latency percentiles out of order: {row}",
        )
    _require(bool(report["traces"]), "no span trees captured")

    def names(node):
        yield node["name"]
        for child in node.get("children", ()):
            yield from names(child)

    seen = {n for tree in report["traces"] for n in names(tree)}
    _require("knn" in seen, f"no 'knn' span in traces: {sorted(seen)}")
    _require(
        "hit_rate" in report["server"]["cache"],
        "server cache stats lack hit_rate",
    )
    return (
        f"ok: {list(report['per_method'])} "
        f"{report['throughput_qps']:.0f} qps"
    )


def check_chaos(report: Dict) -> str:
    _shared_checks(report, "chaos")
    _require(
        report["availability"] >= 0.99,
        f"availability {report['availability']:.2%} below 99%",
    )
    _require(
        report["answers"]["wrong"] == 0,
        f"wrong answers under chaos: {report['answers']}",
    )
    _require(
        report["breaker_ine"]["opened_total"] >= 1,
        "ine breaker never opened under fault plan",
    )
    _require(
        report["breaker_ine"]["state"] == "closed",
        f"ine breaker stuck {report['breaker_ine']['state']!r}",
    )
    _require(
        report["worker_restarts"] >= 1, "no worker restart observed"
    )
    _require(
        sum(report["quarantined"].values()) >= 1,
        "no artifact quarantined",
    )
    return (
        f"ok: {report['availability']:.2%} available, "
        f"{report['answers']['degraded']} degraded, breaker re-closed, "
        f"{report['worker_restarts']} restart(s), "
        f"quarantined {report['quarantined']}"
    )


def check_scale(report: Dict) -> str:
    _shared_checks(report, "scale")
    eq = report["equivalence"]["checks"]
    for name, passed in eq.items():
        _require(passed, f"equivalence check failed: {name}")
    scale = report["scale"]
    _require(
        scale["answers_identical"], "mmap and materialize answers differ"
    )
    gate = scale["rss_gate"]
    _require(
        gate["passed"],
        f"mmap anonymous RSS delta {gate['mmap_anon_delta_bytes']} >= "
        f"limit {gate['limit_bytes']}",
    )
    if report.get("mode") == "full":
        _require(
            scale["ingest"]["num_vertices"] >= 1_000_000,
            f"full run ingested only "
            f"{scale['ingest']['num_vertices']} vertices",
        )
    mmap_probe = scale["probes"]["mmap"]
    return (
        f"ok: {scale['ingest']['num_vertices']} vertices, mmap anon delta "
        f"{gate['mmap_anon_delta_bytes'] >> 20} MB / footprint "
        f"{gate['footprint_bytes'] >> 20} MB, load {mmap_probe['load_s']:.3f}s"
    )


CHECKERS: Dict[str, Callable[[Dict], str]] = {
    "server": check_server,
    "updates": check_updates,
    "obs": check_obs,
    "profile": check_profile,
    "chaos": check_chaos,
    "scale": check_scale,
}


def check_report(bench: str, report: Dict) -> str:
    """Run the ``bench`` checker; returns its summary line."""
    try:
        checker = CHECKERS[bench]
    except KeyError:
        raise CheckFailure(
            f"unknown bench {bench!r}; expected one of {sorted(CHECKERS)}"
        ) from None
    try:
        return checker(report)
    except CheckFailure:
        raise
    except (KeyError, TypeError) as exc:
        # A missing/renamed field is itself a schema regression.
        raise CheckFailure(
            f"report is missing an expected field: {exc!r}"
        ) from exc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(
            f"usage: check_report.py <{'|'.join(sorted(CHECKERS))}> "
            f"<report.json>",
            file=sys.stderr,
        )
        return 2
    bench, path = argv
    with open(path) as fh:
        report = json.load(fh)
    try:
        print(check_report(bench, report))
    except CheckFailure as exc:
        print(f"FAIL[{bench}]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
