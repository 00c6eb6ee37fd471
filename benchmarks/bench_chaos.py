"""Chaos bench: the serving stack under a seeded fault plan.

Drives the full resilience tentpole end to end and writes
``BENCH_chaos.json``:

1. computes a fault-free sequential ground truth for a hotspot workload;
2. installs a seeded :class:`~repro.resilience.FaultPlan` injecting
   store-IO faults (a guaranteed first-load corruption plus random load
   and save failures), a ~5% background kernel fault rate, a
   total-kernel-outage burst window (to trip the circuit breaker) and
   one worker kill mid-run;
3. replays the workload through a :class:`KNNServer` with retrying
   closed-loop clients;
4. clears the plan and probes until the breaker re-closes.

Gates (any failure exits 1; the JSON records all of them):

* availability — ``ok / requests >= 0.99`` under the plan;
* zero wrong answers — non-degraded OK responses byte-identical to the
  fault-free truth (same method, same code); degraded responses exact
  under :func:`~repro.knn.base.verify_knn_result` (the repo's
  cross-method agreement standard: distances within 1e-9 relative,
  vertex ids free only under distance ties) and flagged via provenance;
* at least one degraded response (the fallback chain actually ran);
* the ``ine`` breaker opened during the outage burst and re-closed
  after recovery;
* the supervisor restarted at least one worker (the injected kill);
* at least one store artifact was quarantined;
* after the plan is cleared, answers are non-degraded and byte-identical
  again.

Usage::

    python benchmarks/bench_chaos.py            # full run
    python benchmarks/bench_chaos.py --quick    # CI-sized run
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:  # direct script runs without install
    sys.path.insert(0, str(REPO_SRC))

from repro.engine.engine import QueryEngine  # noqa: E402
from repro.engine.workbench import IndexCache  # noqa: E402
from repro.graph.generators import road_network  # noqa: E402
from repro.knn.base import verify_knn_result  # noqa: E402
from repro.objects import uniform_objects  # noqa: E402
from repro.resilience import (  # noqa: E402
    FaultPlan,
    FaultSpec,
    clear_plan,
    install_plan,
    quarantine_counts,
    reset_quarantine_counts,
)
from repro.server import (  # noqa: E402
    KNNServer,
    hotspot_workload,
    run_closed_loop,
    sequential_baseline,
)
from repro.store import IndexStore  # noqa: E402

from report import write_report  # noqa: E402


def build_plan(seed: int, burst: tuple) -> FaultPlan:
    """The seeded chaos plan (see module docstring for the shape)."""
    return FaultPlan(seed=seed, specs=(
        # First store read is corrupt (guaranteed quarantine), later
        # reads fail 10% of the time.
        FaultSpec("store.load", nth_calls=(1,), probability=0.10),
        # A quarter of artifact writes fail; saves are tolerated (the
        # freshly built index is served anyway).
        FaultSpec("store.save", probability=0.25),
        # Background kernel fault rate on the INE/SSSP hot path.
        FaultSpec("kernel.sssp", probability=0.05),
        # Total kernel outage for a window of call ordinals — enough
        # consecutive primary failures to trip the breaker open.
        FaultSpec("kernel.sssp", between=burst, probability=1.0),
        # One worker thread dies mid-run; the supervisor must replace it.
        FaultSpec("worker.die", nth_calls=(12,)),
    ))


def check_answers(responses, truths) -> Dict[str, int]:
    """Compare server responses to fault-free truth; count outcomes."""
    out = {"ok": 0, "degraded": 0, "wrong": 0, "missing": 0, "failed": 0}
    for response, truth in zip(responses, truths):
        if response is None:
            out["missing"] += 1
            continue
        if not response.ok:
            out["failed"] += 1
            continue
        out["ok"] += 1
        if response.degraded:
            out["degraded"] += 1
            # A fallback method: exact, but float associativity may
            # differ in the last ulp — hold it to the repo's
            # cross-method agreement standard.
            if not verify_knn_result(
                response.result.neighbors, truth.neighbors
            ):
                out["wrong"] += 1
        elif response.result.neighbors != truth.neighbors:
            # Same method, same code: byte-identical or it's wrong.
            out["wrong"] += 1
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--vertices", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", default="BENCH_chaos.json")
    args = parser.parse_args()

    vertices = args.vertices or (800 if args.quick else 2000)
    requests = args.requests or (150 if args.quick else 400)
    burst = (40, 90) if args.quick else (100, 170)
    k = 5

    run_started = time.time()
    graph = road_network(vertices, seed=args.seed)
    # Density 0.02 >= the planner threshold: "auto" resolves to INE,
    # so kernel.sssp faults hit the primary method.
    objects = uniform_objects(graph, density=0.02, seed=args.seed + 1)
    items = hotspot_workload(
        graph, requests, k, hot_vertices=32, seed=args.seed + 2
    )

    print(f"{graph}, |O|={len(objects)}, {requests} requests, k={k}")
    truth_engine = QueryEngine(graph, objects)
    baseline_qps, truths = sequential_baseline(truth_engine, items)
    print(f"  fault-free baseline: {baseline_qps:.0f} qps")

    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="chaos-store-") as tmp:
        store = IndexStore(tmp)
        # Prebuild the fallback index into the store fault-free; the
        # chaos engine then *loads* it — the store.load fault surface.
        IndexCache(graph, store=store).prebuild(["gtree"])
        reset_quarantine_counts()

        cache = IndexCache(graph, store=store)
        engine = QueryEngine(cache, objects)
        server = KNNServer(
            engine,
            workers=4,
            max_batch=8,
            cache_capacity=0,  # no result cache: every query computes
            breaker_threshold=4,
            breaker_cooldown_s=0.4,
            heartbeat_interval_s=0.1,
            wedge_timeout_s=2.0,
        )
        server.start(warmup_methods=["auto"])

        plan = install_plan(build_plan(args.seed, burst))
        try:
            report = run_closed_loop(
                server, items, concurrency=8, timeout_s=30.0,
                retries=3, retry_backoff_s=0.01,
            )
            time.sleep(0.3)  # let the supervisor notice the killed worker
            plan_snapshot = plan.snapshot()
            health_during = server.health()
        finally:
            clear_plan()

        # Recovery: with the plan gone the breaker must re-close (the
        # cooldown expires, a half-open probe succeeds).
        recovered = False
        recovery_checks = {"ok": 0, "degraded": 0, "mismatched": 0}
        deadline = time.monotonic() + 30.0
        probe_items = items[:20]
        while time.monotonic() < deadline:
            state = server.health()["breakers"].get("ine", {}).get("state")
            if state in (None, "closed"):
                recovered = True
                break
            server.query(items[0].vertex, k)
            time.sleep(0.1)
        for item, truth in zip(probe_items, truths[:20]):
            response = server.query(item.vertex, item.k)
            recovery_checks["ok"] += response.ok
            recovery_checks["degraded"] += bool(response.degraded)
            if (
                not response.ok
                or response.result.neighbors != truth.neighbors
            ):
                recovery_checks["mismatched"] += 1
        health_after = server.health()
        stats = server.stats()
        server.stop()
        quarantined = quarantine_counts(store.root)
        reset_quarantine_counts()

    answers = check_answers(report.responses, truths)
    total = report.requests
    ok_rate = answers["ok"] / total if total else 0.0
    breaker = health_after["breakers"].get("ine", {})
    restarts = health_after["workers"]["restarts_total"]

    if ok_rate < 0.99:
        failures.append(f"availability {ok_rate:.4f} < 0.99")
    if answers["wrong"]:
        failures.append(f"{answers['wrong']} wrong answers")
    if not answers["degraded"]:
        failures.append("no degraded responses — fallback chain never ran")
    if breaker.get("opened_total", 0) < 1:
        failures.append("ine breaker never opened")
    if not recovered or breaker.get("state") != "closed":
        failures.append(f"ine breaker did not re-close: {breaker}")
    if restarts < 1:
        failures.append("supervisor restarted no workers")
    if sum(quarantined.values()) < 1:
        failures.append("no store artifact was quarantined")
    if recovery_checks["degraded"] or recovery_checks["mismatched"]:
        failures.append(
            f"post-recovery answers not clean: {recovery_checks}"
        )

    print(
        f"  under chaos: {answers['ok']}/{total} ok "
        f"({ok_rate:.2%}), {answers['degraded']} degraded, "
        f"{answers['wrong']} wrong, client retries "
        f"{report.client_retries}, server retries "
        f"{stats['counts'].get('retries', 0)}"
    )
    print(
        f"  breaker: opened {breaker.get('opened_total', 0)}x, "
        f"re-closed {breaker.get('closed_after_open', 0)}x, final state "
        f"{breaker.get('state')}; worker restarts {restarts}; "
        f"quarantined {dict(quarantined)}"
    )

    payload = {
        "bench": "chaos",
        "vertices": vertices,
        "requests": total,
        "k": k,
        "seed": args.seed,
        "availability": round(ok_rate, 4),
        "answers": answers,
        "status_counts": report.status_counts,
        "client_retries": report.client_retries,
        "server_retries": stats["counts"].get("retries", 0),
        "degraded_responses": stats["counts"].get("degraded", 0),
        "breaker_ine": breaker,
        "breaker_during": health_during["breakers"].get("ine", {}),
        "worker_restarts": restarts,
        "quarantined": dict(quarantined),
        "recovery": {"recovered": recovered, **recovery_checks},
        "fault_plan": plan_snapshot,
        "failures": failures,
    }
    if args.json:
        write_report(args.json, payload, run_started)
        print(f"  report written to {args.json}")
    if failures:
        for failure in failures:
            print(f"  !! {failure}", file=sys.stderr)
        return 1
    print("  all chaos gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
