"""The claim table: verdicts from two runs, and the table's shape."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.experiments.claims import (
    CLAIMS,
    HELD,
    NOT_HELD,
    UNRESOLVED,
    Claim,
    evaluate,
    render,
    verdict,
)
from repro.experiments.runner import ExperimentResult

#: Every artefact of the paper's Section 7 the report covers.
ARTEFACTS = (
    "table1", "table2", "table3", "table5",
    "fig04", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    "fig20_21", "fig22", "fig23", "fig24_27", "fig25", "fig26",
)


@pytest.mark.parametrize(
    "first, second, expected",
    [(True, True, HELD), (False, False, NOT_HELD),
     (True, False, UNRESOLVED), (False, True, UNRESOLVED)],
)
def test_verdict(first, second, expected):
    assert verdict(first, second) == expected


def test_evaluate_runs_twice_and_judges_each_check():
    """Two synthetic runs: a stable value, and one that flips between them."""
    runs = iter([SimpleNamespace(stable=3, flips=1), SimpleNamespace(stable=3, flips=9)])
    claim = Claim(
        "fig99",
        "synthetic",
        lambda nets: next(runs),
        (
            ("stable is 3", lambda m: m.stable == 3),
            ("stable is 4", lambda m: m.stable == 4),
            ("flips is small", lambda m: m.flips < 5),
        ),
    )
    ev = evaluate(claim, None)
    assert ev.verdicts == (HELD, NOT_HELD, UNRESOLVED)
    assert ev.outcomes[2] == (True, False)
    lines = ev.verdict_lines().splitlines()
    assert lines[0].split() == ["held", "stable", "is", "3"]
    assert lines[1].split() == ["not", "held", "stable", "is", "4"]
    assert lines[2].endswith("flips is small (run 1 True, run 2 False)")


def test_render_shows_results_text_and_scalars_only():
    result = ExperimentResult("Fig X", "k", "us")
    result.add("ine", 1, 2.0)
    text = render(SimpleNamespace(r=result, table="TABLE", n=12, rows=[{"a": 1}]))
    assert text.splitlines()[0] == "== Fig X (us) =="
    assert "TABLE" in text and "n = 12" in text
    assert "rows" not in text


def test_table_covers_every_artefact_once():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert sorted(ids) == sorted(ARTEFACTS)
    assert CLAIMS[0].title == "Table 1"
    assert {c.id: c.title for c in CLAIMS}["fig20_21"] == "Figures 20/21"


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.id for c in CLAIMS])
def test_every_claim_states_the_paper_and_checks_it(claim):
    assert claim.paper.strip()
    assert claim.checks
    for text, predicate in claim.checks:
        assert text.strip() and callable(predicate)
    texts = {text for text, _ in claim.checks}
    assert len(texts) == len(claim.checks)
