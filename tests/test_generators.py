"""Synthetic road-network generator tests."""

import hashlib

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro.graph.generators import (
    SCALED_SUITE,
    chain_heavy_network,
    delaunay_network,
    grid_network,
    road_network,
    scaled_network_suite,
    )


def _is_connected(graph):
    n, _ = connected_components(graph.to_csr_matrix(), directed=False)
    return n == 1


class TestGridNetwork:
    def test_connected(self):
        assert _is_connected(grid_network(8, 6, seed=0))

    def test_deterministic(self):
        a = grid_network(5, 5, seed=3)
        b = grid_network(5, 5, seed=3)
        assert a.num_edges == b.num_edges
        assert np.allclose(a.edge_weight, b.edge_weight)

    def test_weights_at_least_euclidean(self):
        g = grid_network(6, 6, seed=1)
        for u, v, w in g.edge_list():
            assert w >= g.euclidean(u, v) - 1e-9

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            grid_network(0, 5)


class TestDelaunayNetwork:
    def test_connected_and_sized(self):
        g = delaunay_network(200, seed=2)
        assert g.num_vertices == 200
        assert _is_connected(g)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            delaunay_network(2)


class TestRoadNetwork:
    def test_connected(self, road400):
        assert _is_connected(road400)

    def test_approximate_size(self):
        g = road_network(800, seed=1)
        # The LCC restriction may trim a few vertices.
        assert 700 <= g.num_vertices <= 800

    def test_chain_fraction_controls_degree2(self):
        low = road_network(500, seed=4, chain_fraction=0.05)
        high = chain_heavy_network(500, seed=4, chain_fraction=0.9)
        frac = lambda g: float((np.diff(g.vertex_start) == 2).mean())
        assert frac(high) > frac(low) + 0.2
        assert frac(high) > 0.5

    def test_deterministic(self):
        a = road_network(300, seed=9)
        b = road_network(300, seed=9)
        assert a.num_edges == b.num_edges

    @pytest.mark.parametrize("n, digest", [
        (2500, "6ceaa064aeb24101f18f371b7ae1fba1c4a826c719dc3d06b1781f6ef687dade"),
        (10000, "63b1d6047c4347bcae31361c04e5926cd0ab593b1da3629856ea3874863285d7"),
    ])
    def test_pinned_bytes(self, n, digest):
        # The benchmark's networks, byte for byte: a faster generator must
        # still produce exactly these arrays.
        g = road_network(n, 42)
        h = hashlib.sha256()
        for a in (g.vertex_start, g.edge_target, g.edge_weight, g.x, g.y):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == digest

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            road_network(5)


class TestTravelTime:
    def test_times_leq_distances(self, road400, road400_time):
        """Every speed is >= 1, so time <= distance per edge."""
        assert np.all(road400_time.edge_weight <= road400.edge_weight + 1e-9)

    def test_symmetric_per_edge(self, road400_time):
        for u in range(0, road400_time.num_vertices, 29):
            for v, w in road400_time.neighbors(u):
                assert dict(road400_time.neighbors(v))[u] == pytest.approx(w)

    def test_speed_classes_present(self, road400, road400_time):
        ratio = road400.edge_weight / road400_time.edge_weight
        assert ratio.max() > 1.5  # some fast roads exist
        assert ratio.min() == pytest.approx(1.0, abs=1e-6)


class TestScaledSuite:
    def test_subset_by_max_vertices(self):
        suite = scaled_network_suite(max_vertices=2000)
        assert set(suite) == {name for name, n in SCALED_SUITE if n <= 2000}
        for g in suite.values():
            assert _is_connected(g)

    def test_sizes_increase(self):
        sizes = [n for _, n in SCALED_SUITE]
        assert sizes == sorted(sizes)
