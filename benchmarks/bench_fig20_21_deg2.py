"""Figures 20/21: the degree-2 chain optimisation for Distance Browsing.

Paper shape: ~30% improvement on ordinary networks (matching their
degree-2 share) and up to an order of magnitude on the 95%-chain highway
network, where chain jumps replace most O(log V) quadtree lookups.
"""

import pytest

from repro.engine import IndexCache
from repro.experiments import figures
from repro.graph.generators import chain_heavy_network

from _bench_utils import run_once


@pytest.fixture(scope="module")
def highway():
    """The NA-highway analogue: overwhelmingly degree-2 chains."""
    return IndexCache(chain_heavy_network(1500, seed=3, chain_fraction=0.9))


def test_fig21_normal_network(benchmark, nw):
    by_k, by_d = run_once(
        benchmark,
        lambda: figures.fig20_21_deg2(
            nw, ks=(1, 10), densities=(0.003, 0.05), num_queries=10
        ),
    )
    print()
    print(by_k.format_text())
    print(by_d.format_text())
    # The optimisation never hurts meaningfully on a normal network.
    assert by_k.mean("OptDisBrw") < 1.15 * by_k.mean("DisBrw")


def test_fig20_chain_heavy_network(benchmark, highway):
    by_k, by_d = run_once(
        benchmark,
        lambda: figures.fig20_21_deg2(
            highway, ks=(1, 10), densities=(0.01, 0.05), num_queries=10
        ),
    )
    print()
    print(by_k.format_text())
    print(by_d.format_text())
    # Chains dominate here: the optimisation wins clearly.
    assert by_k.mean("OptDisBrw") < by_k.mean("DisBrw")
