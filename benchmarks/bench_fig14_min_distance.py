"""Figure 14: minimum-object-distance sets (query remoteness).

Paper shape: INE deteriorates exponentially as objects move away; the
Euclidean bound loosens with distance so IER degrades too; G-tree scales
best thanks to materialized hierarchy paths.

INE runs as one C-level kernel call (docs/performance.md): remoteness
still costs it more than it costs G-tree, but at 2,500 vertices the
growth is tens of percent, not the paper's exponential, and INE stays
ahead of G-tree in absolute time.
"""

from repro.experiments import figures

from _bench_utils import run_once


def test_fig14_shape(benchmark, nw):
    result = run_once(
        benchmark,
        lambda: figures.fig14_min_distance(nw, num_sets=4, num_queries=10),
    )
    print()
    print(result.format_text())
    # INE's cost grows with remoteness.
    assert result.at("ine", "R4") > 1.1 * result.at("ine", "R1")
    # G-tree scales far better than INE.
    gtree_ratio = result.at("gtree", "R4") / result.at("gtree", "R1")
    ine_ratio = result.at("ine", "R4") / result.at("ine", "R1")
    assert gtree_ratio < ine_ratio
    # G-tree beats the other hierarchy traversal outright on the
    # remotest set.
    assert result.at("gtree", "R4") < result.at("road", "R4")
