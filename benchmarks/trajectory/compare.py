"""A/A and A/B comparison of two sets of benchmark reports.

    python3 benchmarks/trajectory/compare.py DIR_A DIR_B [--kind per_layer]

Each directory holds the reports ``run.py --out`` wrote (one per run).
Prints one row per workload x metric: each side's median and quartiles,
the ratio B/A *with its base* (A's median), and for end-to-end metrics a
verdict against the bound fixed in ``BENCHMARK.json``:

* ``unresolved`` — a side's own spread (Q3-Q1 over its median) is wider
  than the bound, so the runs cannot tell a change that size from noise;
* ``regressed``  — B's median is worse than A's by more than the bound;
* ``ok``         — neither.

Per-layer metrics have no bound and get no verdict.  Exits non-zero when
any row is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import estimators

REPO = Path(__file__).resolve().parent.parent.parent
KINDS = ("end_to_end", "per_layer")

#: (workload, metric) -> one value per run
Table = Dict[Tuple[str, str], List[float]]


def load_report(path: Path, kind: str) -> dict:
    """One report, refused unless it is of ``kind``: a traced run's
    numbers are not end-to-end numbers, and the other way round."""
    report = json.loads(path.read_text())
    found = report.get("meta", {}).get("kind")
    if found != kind:
        raise ValueError(f"{path} is a {found!r} report, not {kind!r}")
    return report


def load_side(directory: str, kind: str) -> Table:
    paths = sorted(Path(directory).glob(f"{kind}-*.json"))
    if not paths:
        raise ValueError(f"no {kind} reports in {directory}")
    table: Table = defaultdict(list)
    sizes = set()
    for path in paths:
        report = load_report(path, kind)
        sizes.add(bool(report["meta"]["quick"]))
        if not report["correct"]:
            raise ValueError(f"{path} reports wrong or failed operations")
        for name, metric in report["metrics"].items():
            table[(report["meta"]["workload"], name)].append(metric["value"])
    if len(sizes) > 1:
        raise ValueError(f"{directory} mixes --quick and full-size reports")
    return table


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    worse = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worse = -worse
    return "regressed" if worse > bound else "ok"


def compare(table_a: Table, table_b: Table, spec: dict, kind: str) -> List[dict]:
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec[kind]:
            key = (workload, metric["name"])
            if key not in table_a or key not in table_b:
                continue
            a = estimators.summary(table_a[key])
            b = estimators.summary(table_b[key])
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "a": a,
                "b": b,
                "ratio": b["median"] / a["median"] if a["median"] else float("nan"),
                "verdict": (
                    verdict(a, b, metric["better"], metric["bound"])
                    if "bound" in metric else ""
                ),
            })
    return rows


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':15s} {'metric':34s} {'A median [q1, q3] (n)':>38s} "
        f"{'B median [q1, q3] (n)':>38s} {'B/A (of A median)':>24s}  verdict"
    ]
    for r in rows:
        sides = [
            f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] ({s['n']})"
            for s in (r["a"], r["b"])
        ]
        ratio = f"{r['ratio']:.3f} of {r['a']['median']:.5g} {r['unit']}"
        lines.append(
            f"{r['workload']:15s} {r['metric']:34s} {sides[0]:>38s} "
            f"{sides[1]:>38s} {ratio:>24s}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="directory of side A's reports (the base)")
    parser.add_argument("b", help="directory of side B's reports")
    parser.add_argument("--kind", choices=KINDS, default="end_to_end")
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    try:
        rows = compare(
            load_side(args.a, args.kind), load_side(args.b, args.kind),
            spec, args.kind,
        )
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
