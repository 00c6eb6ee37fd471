"""Generate EXPERIMENTS.md: the paper-vs-measured faithfulness ledger.

Evaluates every record of :data:`repro.experiments.claims.CLAIMS` on
in-memory builds of the scaled networks and writes, per artefact, the
paper's statement, the measured series and each check's computed verdict
(held / not held / unresolved).

Run:  python -m repro.experiments.report [output-path]
"""

from __future__ import annotations

import sys
import time
from typing import List

from repro.experiments.claims import (
    CLAIMS,
    HELD,
    NOT_HELD,
    NW_SIZE,
    UNRESOLVED,
    US_SIZE,
    Evaluation,
    Networks,
    evaluate,
    render,
)


def _section(ev: Evaluation) -> str:
    return (
        f"### {ev.claim.title}\n\n**Paper.** {ev.claim.paper}\n\n"
        f"**Measured (first run).**\n\n```\n{render(ev.runs[0])}\n```\n\n"
        f"**Checks.**\n\n```\n{ev.verdict_lines()}\n```\n"
    )


def build_report() -> str:
    started = time.time()
    nets = Networks()
    evaluations: List[Evaluation] = []
    for claim in CLAIMS:
        evaluations.append(evaluate(claim, nets))
        print(f"[{time.time() - started:6.1f}s] {claim.title}")

    verdicts = [v for ev in evaluations for v in ev.verdicts]
    summary = ", ".join(
        f"{verdicts.count(v)} {v}" for v in (HELD, NOT_HELD, UNRESOLVED)
    )
    header = f"""# EXPERIMENTS — paper vs measured

Generated by ``python -m repro.experiments.report`` on scaled synthetic
networks (NW analogue: {NW_SIZE} vertices, US analogue: {US_SIZE};
paper: 1.1M and 24M), every index built in memory.  Absolute numbers are
pure-Python and 100-1000x the paper's C++ microseconds; what is checked
is each artefact's *shape*.  Each artefact ran twice: a check true in
both runs is held, false in both not held, and split unresolved.  The
scaling conventions are in the docstring of ``repro.experiments.claims``.

**{len(verdicts)} checks: {summary}.**

---
"""
    return header + "\n".join(_section(ev) for ev in evaluations)


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    report = build_report()
    with open(path, "w") as handle:
        handle.write(report)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
