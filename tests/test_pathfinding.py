"""Dijkstra / bulk-helper tests."""

import numpy as np
import pytest

from repro.pathfinding.bulk import (
    bulk_distance_matrix,
    bulk_sssp,
    eccentric_vertex,
    first_hops,
    network_center,
)
from repro.pathfinding.dijkstra import (
    DijkstraOracle,
    dijkstra_distance,
    dijkstra_path,
    dijkstra_sssp,
    dijkstra_to_targets,
)
from repro.reference import dijkstra_restricted
from repro.utils.counters import Counters


@pytest.fixture(scope="module")
def truth400(road400):
    return bulk_sssp(road400, list(range(0, road400.num_vertices, 23)))


class TestDijkstra:
    def test_sssp_matches_scipy(self, road400):
        mine = dijkstra_sssp(road400, 0)
        scipy_dist = bulk_sssp(road400, [0])[0]
        assert np.allclose(mine, scipy_dist)

    def test_point_to_point(self, road400):
        sssp = dijkstra_sssp(road400, 5)
        for t in (0, 17, 200, 399 % road400.num_vertices):
            assert dijkstra_distance(road400, 5, t) == pytest.approx(sssp[t])

    def test_identity(self, road400):
        assert dijkstra_distance(road400, 7, 7) == 0.0

    def test_path_weights_sum_to_distance(self, road400):
        d, path = dijkstra_path(road400, 0, 300 % road400.num_vertices)
        assert path[0] == 0
        total = 0.0
        for u, v in zip(path, path[1:]):
            w = road400.edge_weight_between(u, v)
            assert w is not None
            total += w
        assert total == pytest.approx(d)

    def test_cutoff_truncates(self, road400):
        full = dijkstra_sssp(road400, 0)
        cut = dijkstra_sssp(road400, 0, cutoff=float(np.median(full)) / 2)
        assert np.isinf(cut).sum() > np.isinf(full).sum()

    def test_to_targets_early_exit(self, road400):
        counters = Counters()
        targets = [3, 50, 200]
        out = dijkstra_to_targets(road400, 0, targets, counters=counters)
        sssp = dijkstra_sssp(road400, 0)
        for t in targets:
            assert out[t] == pytest.approx(sssp[t])
        assert counters["sssp_settled"] < road400.num_vertices

    def test_restricted_stays_inside(self, road400):
        allowed = list(range(0, 60))
        out = dijkstra_restricted(road400, 0, allowed)
        assert set(out) <= set(allowed)
        # Restricted distances can only be >= unrestricted.
        sssp = dijkstra_sssp(road400, 0)
        for v, d in out.items():
            assert d >= sssp[v] - 1e-9

    def test_restricted_requires_inside_source(self, road400):
        with pytest.raises(ValueError):
            dijkstra_restricted(road400, 300 % road400.num_vertices, [0, 1])

    def test_oracle_protocol(self, road400):
        oracle = DijkstraOracle(road400)
        assert oracle.size_bytes() == 0
        assert oracle.distance(0, 0) == 0.0


class TestBulk:
    def test_bulk_matrix_shape_and_values(self, road400):
        sources, targets = [0, 10], [5, 20, 30]
        m = bulk_distance_matrix(road400, sources, targets)
        assert m.shape == (2, 3)
        assert m[0, 0] == pytest.approx(dijkstra_distance(road400, 0, 5))

    def test_first_hops_consistent_with_paths(self, road400):
        dist, hop = first_hops(road400, 0)
        sssp = dijkstra_sssp(road400, 0)
        assert np.allclose(dist, sssp)
        assert hop[0] == 0
        for t in range(1, road400.num_vertices, 41):
            h = int(hop[t])
            w = road400.edge_weight_between(0, h)
            assert w is not None  # first hop is adjacent to the source
            # Taking the hop must lie on *a* shortest path.
            assert w + dijkstra_distance(road400, h, t) == pytest.approx(
                float(dist[t])
            )

    def test_eccentric_vertex(self, road400):
        far, dmax = eccentric_vertex(road400, 0)
        sssp = dijkstra_sssp(road400, 0)
        assert dmax == pytest.approx(float(sssp[np.isfinite(sssp)].max()))
        assert sssp[far] == pytest.approx(dmax)

    def test_network_center_is_valid_vertex(self, road400):
        c = network_center(road400)
        assert 0 <= c < road400.num_vertices
