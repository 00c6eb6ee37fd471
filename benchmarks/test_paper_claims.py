"""The paper's evaluation, checked: one test per record of ``CLAIMS``.

Each test evaluates one artefact (a figure or table) twice on the scaled
networks, prints its tables and every check's verdict, and fails only on
a check that is *not held* in both runs; an *unresolved* check (split
between the runs) is reported, not failed.  Not part of tier-1:

    python -m pytest benchmarks/test_paper_claims.py -q -s

Indexes live in the shared store (``benchmarks/.store``, or
``REPRO_BENCH_STORE``): the first session builds, later ones warm-start.
"""

from __future__ import annotations

import pytest

from repro.experiments.claims import CLAIMS, NOT_HELD, Networks, evaluate, render

from _bench_utils import shared_store


@pytest.fixture(scope="module")
def nets():
    return Networks(shared_store())


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.id for c in CLAIMS])
def test_claim(claim, nets):
    ev = evaluate(claim, nets)
    report = "\n".join((
        f"== {claim.title}: {claim.paper}",
        *(f"-- run {i}\n{render(m)}" for i, m in enumerate(ev.runs, start=1)),
        ev.verdict_lines(),
    ))
    print()
    print(report)
    assert NOT_HELD not in ev.verdicts, report
