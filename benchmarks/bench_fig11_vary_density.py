"""Figure 11: query time vs uniform object density.

Paper shape: all methods get faster as density rises, but expansion-based
methods (INE, ROAD) improve fastest and overtake the heuristic methods at
high density; ROAD falls behind INE beyond ~0.01; IER's advantage is
largest at low density.

INE runs as one C-level kernel call whose fixed cost (~100 us) is a
floor, so its improvement with density reads 2-4.5x here where ROAD's
interpreter-bound expansion shows the paper's >5x; the crossover and
the low-density ranking are as in the paper.
"""

from repro.experiments import figures

from _bench_utils import run_once

DENSITIES = (0.003, 0.03, 0.3)


def test_fig11_nw_shape(benchmark, nw):
    result = run_once(
        benchmark,
        lambda: figures.fig11_vary_density(
            nw, densities=DENSITIES, num_queries=12
        ),
    )
    print()
    print(result.format_text())
    low, high = DENSITIES[0], DENSITIES[-1]
    # Expansion methods improve dramatically with density.
    assert result.at("road", high) < result.at("road", low) / 5
    assert result.at("ine", high) < result.at("ine", low) / 1.5
    # INE overtakes the heuristic methods at the highest density
    # (the paper's crossover).
    assert result.at("ine", high) < result.at("ier-phl", high)
    assert result.at("ine", high) < result.at("gtree", high)
    # At low density IER-PHL is the clear winner.
    assert result.at("ier-phl", low) == min(
        result.at(m, low) for m in result.series
    )
    # Heuristic methods flatten or degrade: their improvement ratio is
    # smaller than the expansion methods'.
    ine_ratio = result.at("ine", low) / result.at("ine", high)
    phl_ratio = result.at("ier-phl", low) / max(result.at("ier-phl", high), 1e-9)
    assert phl_ratio < ine_ratio


def test_fig11_us_shape(benchmark, us):
    result = run_once(
        benchmark,
        lambda: figures.fig11_vary_density(
            us, densities=(0.003, 0.1), num_queries=8
        ),
    )
    print()
    print(result.format_text())
    assert result.at("ier-phl", 0.003) < result.at("ine", 0.003)
