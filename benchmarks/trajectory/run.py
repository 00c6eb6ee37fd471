"""The repo benchmark: one workload per invocation.

    python3 benchmarks/trajectory/run.py --workload engine-sparse --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation of
the benchmark's own; ``--trace 1`` replays a sample of the same workload
with spans recorded around each layer's public entry points and reports
the per-layer metrics.  Every metric is printed by name with its unit,
the full report (with its ``meta`` envelope) is written under ``--out``,
and the last line of standard output is the one-object summary the
driver reads.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from repro.obs.runinfo import run_metadata  # noqa: E402

import apicheck  # noqa: E402
import driver  # noqa: E402
import workloads as wl  # noqa: E402


def pin_to_one_cpu() -> Optional[int]:
    """Pin every thread of this process, and so every thread it starts
    later, to one CPU.

    A request through ``KNNServer`` is two thread hand-offs.  On this
    2-vCPU host the scheduler keeps client and worker on one CPU for the
    first second or two and then spreads them, after which every hand-off
    wakes an idle vCPU: +150-250 us on every request (``ine`` p50 480 ->
    700 us), falling back now and then for a slice or two.  All the
    threads share one GIL, so the second CPU buys nothing but that noise.
    Returns the CPU, or ``None`` where the platform cannot pin.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        for tid in os.listdir("/proc/self/task"):
            os.sched_setaffinity(int(tid), {cpu})
    except (AttributeError, OSError, ValueError):
        return None
    return cpu


def spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def tree_is_dirty() -> Optional[bool]:
    """Whether the checkout has uncommitted changes; ``None`` outside git."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"], cwd=str(REPO),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return bool(out.stdout.strip()) if out.returncode == 0 else None


def meta(args, started: float, kind: str, pinned_cpu: Optional[int]) -> dict:
    envelope = run_metadata(started)
    envelope.update({
        "pinned_cpu": pinned_cpu,
        "kind": kind,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_dirty": tree_is_dirty(),
    })
    return envelope


def end_to_end(args, workload: wl.Workload, scratch: str, units: Dict[str, str]) -> dict:
    """Set up cold ``workload.setup_reps`` times, run the timed phase on
    the last set-up, verify outside it."""
    setups: List[float] = []
    ctx = None
    for _ in range(workload.setup_reps):
        if ctx is not None:
            ctx.close()
            ctx = None
            gc.collect()
        t0 = time.perf_counter()
        ctx = driver.set_up(workload, args.seed, scratch)
        setups.append(time.perf_counter() - t0)
    try:
        phase = driver.timed_phase(ctx, args.seconds)
        problems = driver.verify(ctx, phase.pop("samples"))
    finally:
        ctx.close()
    if phase["strayed"]:
        problems.append(
            f"{phase['strayed']} ops were degraded or planned off "
            f"{workload.auto_resolves_to!r}"
        )
    if phase["serve_time_builds"]:
        problems.append(
            f"{phase['serve_time_builds']} index builds inside the timed phase"
        )
    metrics = {"setup_s": statistics.median(setups), **phase.pop("metrics")}
    failed = min(phase["attempted"], phase["failed"] + len(problems))
    return {
        "correct": failed == 0,
        "attempted": phase["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
        "details": {
            **phase,
            "setup_reps_s": setups,
            "samples_per_percentile": {
                "latency_p50_us": phase["pool_ops"],
                "latency_p99_us": phase["pool_ops"],
            },
            "problems": problems[:20],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    benchmark = spec()
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"])
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke size: a quarter of each graph (numbers size nothing)",
    )
    parser.add_argument(
        "--out", default=str(HERE / "out"),
        help="directory for the report, the span file and scratch stores",
    )
    args = parser.parse_args(argv)
    started = time.time()
    pinned_cpu = pin_to_one_cpu()

    breaches = apicheck.forbidden_uses(HERE)
    if breaches:
        print("benchmark uses API slated for deletion:", *breaches, sep="\n  ")
        return 2

    workload = wl.BY_NAME[args.workload]
    if args.quick:
        workload = wl.quick(workload)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark[kind]}
    if args.trace:
        import layers

        report = layers.traced(args, workload, str(out), units)
    else:
        report = end_to_end(args, workload, str(out), units)
    report["meta"] = meta(args, started, kind, pinned_cpu)

    print(f"# {args.workload} seed={args.seed} {kind}")
    for name, m in report["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for problem in report["details"].get("problems", ()):
        print(f"PROBLEM {problem}")
    path = out / f"{kind}-{args.workload}-seed{args.seed}-{int(started * 1e3)}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"# report: {path}")
    print(json.dumps({
        key: report[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
