"""Figure 7: INE in-memory implementation ladder.

Paper shape: each choice (no-decrease-key queue, byte-array settled set,
flat CSR arrays) roughly halves query time; the final implementation is
6-7x faster than the first cut.  In CPython the queue change is the big
step and the final rung is the fastest of the paper's four.  The fifth
series is the production INE — the whole-frontier kernel one rung past
the paper's ladder — measured inside the paper's own figure.
"""

from repro.experiments import figures

from _bench_utils import run_once

KS = (1, 10, 25)
DENSITIES = (0.003, 0.05)


def test_fig07_shape(benchmark, nw):
    by_k, by_d = run_once(
        benchmark,
        lambda: figures.fig07_ine_ablation(
            nw.graph, ks=KS, densities=DENSITIES, num_queries=12
        ),
    )
    print()
    print(by_k.format_text())
    print(by_d.format_text())
    # The first cut is the slowest rung; the final "Graph" configuration
    # is within noise of the best rung and clearly ahead of the first
    # cut; the decrease-key queue alone costs ~1.5x.
    rungs = ("1st Cut", "PQueue", "Settled", "Graph")
    assert by_k.mean("1st Cut") == max(by_k.mean(label) for label in rungs)
    assert by_k.mean("Graph") < 1.3 * min(by_k.mean(label) for label in rungs)
    assert by_k.mean("1st Cut") > 1.3 * by_k.mean("Graph")
    assert by_k.mean("1st Cut") > 1.3 * by_k.mean("PQueue")
    for d in DENSITIES:
        assert by_d.at("Graph", d) < by_d.at("1st Cut", d)
    # One rung past the ladder: the production kernel beats "Graph".
    assert by_k.mean("Production") < by_k.mean("Graph")
