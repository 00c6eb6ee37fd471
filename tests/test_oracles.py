"""CH, hub-label and TNR oracle tests (exactness + structure)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import reference
from repro.graph.generators import delaunay_network, road_network, travel_time_weights
from repro.pathfinding.ch import ContractionHierarchy
from repro.pathfinding.dijkstra import dijkstra_distance, dijkstra_sssp
from repro.pathfinding.hub_labels import HubLabels
from repro.pathfinding.tnr import TransitNodeRouting


@pytest.fixture(scope="module")
def ch400(road400):
    return ContractionHierarchy(road400)


@pytest.fixture(scope="module")
def hl400(road400, ch400):
    return HubLabels(road400, order=list(np.argsort(-ch400.rank)))


@pytest.fixture(scope="module")
def tnr400(road400, ch400):
    return TransitNodeRouting(road400, ch=ch400, num_transit=24)


class TestContractionHierarchy:
    def test_exact_on_sampled_pairs(self, road400, ch400, queries400):
        for s in queries400[:6]:
            sssp = dijkstra_sssp(road400, s)
            for t in queries400[6:12]:
                assert ch400.distance(s, t) == pytest.approx(float(sssp[t]))

    def test_identity(self, ch400):
        assert ch400.distance(9, 9) == 0.0

    def test_rank_is_permutation(self, road400, ch400):
        assert sorted(ch400.rank) == list(range(road400.num_vertices))

    def test_upward_edges_point_up(self, ch400):
        up = ch400.up
        sources = np.repeat(np.arange(up.shape[0]), np.diff(up.indptr))
        assert up.nnz > 0
        assert np.all(ch400.rank[up.indices] > ch400.rank[sources])

    def test_size_and_build_time(self, ch400):
        assert ch400.size_bytes() > 0
        assert ch400.build_time() > 0

    def test_pruned_search_is_upper_bound(self, road400, ch400):
        transit = set(int(v) for v in np.argsort(-ch400.rank)[:16])
        for s, t in [(0, 200), (5, 399 % road400.num_vertices)]:
            pruned = reference.ch_distance(ch400, s, t, prune_at=transit)
            assert pruned >= dijkstra_distance(road400, s, t) - 1e-9


class TestHubLabels:
    def test_exact_on_sampled_pairs(self, road400, hl400, queries400):
        for s in queries400[:6]:
            sssp = dijkstra_sssp(road400, s)
            for t in queries400[6:12]:
                assert hl400.distance(s, t) == pytest.approx(float(sssp[t]))

    def test_labels_sorted_by_hub_rank(self, road400, hl400):
        for v in range(0, road400.num_vertices, 31):
            hubs, _ = hl400.label(v)
            assert np.all(np.diff(hubs) > 0)

    def test_every_vertex_has_self_certificate(self, road400, hl400):
        for v in range(0, road400.num_vertices, 53):
            assert hl400.distance(v, v) == 0.0

    def test_default_order_also_exact(self, road400):
        hl = HubLabels(road400)  # degree/centrality order
        for s, t in [(0, 111), (222, 333 % road400.num_vertices)]:
            assert hl.distance(s, t) == pytest.approx(
                dijkstra_distance(road400, s, t)
            )

    def test_average_label_size_reasonable(self, road400, hl400):
        assert 1 <= hl400.average_label_size() < road400.num_vertices / 2


class TestTransitNodeRouting:
    def test_exact_on_sampled_pairs(self, road400, tnr400, queries400):
        for s in queries400[:6]:
            sssp = dijkstra_sssp(road400, s)
            for t in queries400[6:12]:
                assert tnr400.distance(s, t) == pytest.approx(float(sssp[t]))

    def test_access_nodes_exist(self, road400, tnr400):
        assert tnr400.average_access_nodes() >= 1.0
        for v in (0, 100, 200):
            nodes, _ = tnr400.access_nodes(v)
            assert len(nodes) >= 1

    def test_transit_node_accesses_itself(self, tnr400):
        t = tnr400.transit_nodes[0]
        nodes, dists = tnr400.access_nodes(t)
        assert nodes.tolist() == [0] and dists.tolist() == [0.0]

    def test_table_symmetric(self, tnr400):
        assert np.allclose(tnr400.table, tnr400.table.T)


class TestOraclesPropertyBased:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_all_oracles_agree_on_random_networks(self, seed):
        graph = delaunay_network(80, seed=seed)
        ch = ContractionHierarchy(graph)
        hl = HubLabels(graph, order=list(np.argsort(-ch.rank)))
        tnr = TransitNodeRouting(graph, ch=ch, num_transit=8)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            s, t = rng.integers(0, graph.num_vertices, 2)
            d0 = dijkstra_distance(graph, int(s), int(t))
            assert ch.distance(int(s), int(t)) == pytest.approx(d0)
            assert hl.distance(int(s), int(t)) == pytest.approx(d0)
            assert tnr.distance(int(s), int(t)) == pytest.approx(d0)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_oracles_exact_on_travel_time(self, seed):
        graph = travel_time_weights(road_network(150, seed=seed), seed=seed)
        ch = ContractionHierarchy(graph)
        hl = HubLabels(graph, order=list(np.argsort(-ch.rank)))
        rng = np.random.default_rng(seed)
        for _ in range(4):
            s, t = rng.integers(0, graph.num_vertices, 2)
            d0 = dijkstra_distance(graph, int(s), int(t))
            assert ch.distance(int(s), int(t)) == pytest.approx(d0)
            assert hl.distance(int(s), int(t)) == pytest.approx(d0)
