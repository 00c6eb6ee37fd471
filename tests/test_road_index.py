"""ROAD index tests: Rnets, shortcuts, Route Overlay, Association Directory."""

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.index.road import AssociationDirectory, RoadIndex
from repro.pathfinding.dijkstra import dijkstra_distance
from repro.reference import dijkstra_restricted


@pytest.fixture(scope="module")
def road_index(road400):
    return RoadIndex(road400, levels=3)


def assert_every_shortcut_within_rnet(graph, road, induced_min_csr):
    """Every Rnet's shortcut matrix against scipy Dijkstra on the Rnet's
    induced subgraph, border to border.  The vertex sets come from the
    partition tree itself (a preorder walk pairs it with the Rnet ids)."""
    pnodes, stack = [], [road.partition]
    while stack:
        pnode = stack.pop()
        pnodes.append(pnode)
        stack.extend(reversed(pnode.children))
    assert len(pnodes) == len(road.rnets)
    for pnode, rnet in zip(pnodes, road.rnets):
        verts = np.sort(np.asarray(pnode.vertices))
        border_pos = np.searchsorted(verts, rnet.borders)
        assert np.array_equal(verts[border_pos], rnet.borders)
        if len(border_pos) == 0:
            assert rnet.shortcut_matrix.shape == (0, 0)
            continue
        within = scipy_dijkstra(
            induced_min_csr(graph, verts), directed=True, indices=border_pos
        )[:, border_pos]
        np.testing.assert_allclose(rnet.shortcut_matrix, within, rtol=1e-9)


class TestHierarchy:
    def test_leaves_partition_vertices(self, road400, road_index):
        leaves = [n for n in road_index.rnets if n.is_leaf]
        total = sum(len(n.vertices) for n in leaves)
        assert total == road400.num_vertices

    def test_levels_bounded(self, road_index):
        assert max(n.level for n in road_index.rnets) <= 3

    def test_borders_subset_of_vertices(self, road_index):
        for node in road_index.rnets:
            verts = set(int(v) for v in road_index.node_vertices(node))
            assert set(int(b) for b in node.borders) <= verts

    def test_interior_size(self, road_index):
        for node in road_index.rnets:
            verts = road_index.node_vertices(node)
            assert node.interior_size == len(verts) - len(node.borders)

    def test_bookkeeping(self, road_index):
        assert road_index.build_time() > 0
        assert road_index.size_bytes() > 0
        assert road_index.num_rnets() == len(road_index.rnets) - 1
        assert road_index.average_borders() > 0


class TestShortcuts:
    def test_leaf_shortcuts_are_within_rnet_distances(self, road400, road_index):
        leaf = next(n for n in road_index.rnets if n.is_leaf and len(n.borders) >= 2)
        allowed = [int(v) for v in leaf.vertices]
        for i, b in enumerate(leaf.borders[:3]):
            within = dijkstra_restricted(road400, int(b), allowed)
            for j, b2 in enumerate(leaf.borders):
                expected = within.get(int(b2), float("inf"))
                assert leaf.shortcut_matrix[i, j] == pytest.approx(expected)

    def test_every_rnet_at_every_level_matches_scipy(
        self, road400, road_index, induced_min_csr
    ):
        assert max(n.level for n in road_index.rnets) >= 2
        assert_every_shortcut_within_rnet(road400, road_index, induced_min_csr)

    @pytest.mark.parametrize("name", ("disconnected", "unit-grid", "parallel"))
    def test_adversarial_inputs(self, adversarial_graphs, induced_min_csr, name):
        graph = adversarial_graphs[name]
        road = RoadIndex(graph, levels=3)
        assert sum(len(n.borders) for n in road.rnets) > 0
        assert_every_shortcut_within_rnet(graph, road, induced_min_csr)

    def test_shortcuts_upper_bound_global_distance(self, road400, road_index):
        """Within-Rnet distances can never undercut global distances."""
        for node in road_index.rnets[1:5]:
            if len(node.borders) < 2:
                continue
            for i in range(min(3, len(node.borders))):
                for j in range(len(node.borders)):
                    if i == j:
                        continue
                    d_global = dijkstra_distance(
                        road400, int(node.borders[i]), int(node.borders[j])
                    )
                    sc = node.shortcut_matrix[i, j]
                    if np.isfinite(sc):
                        assert sc >= d_global - 1e-9

    def test_shortcut_row_lookup(self, road_index):
        node = next(n for n in road_index.rnets if n.id != road_index.root and len(n.borders) >= 2)
        b = int(node.borders[0])
        borders, row = road_index.shortcut_row(node.id, b)
        assert len(borders) == len(row)
        assert row[0] == pytest.approx(0.0)


class TestRouteOverlay:
    def test_chain_ordered_by_level(self, road_index):
        for chain in road_index.route_overlay:
            levels = [road_index.rnets[r].level for r in chain]
            assert levels == sorted(levels)

    def test_chain_is_contiguous_suffix(self, road_index):
        """A border of an Rnet is a border of all its descendants holding it."""
        for v, chain in enumerate(road_index.route_overlay):
            if not chain:
                continue
            # The deepest entry must be the leaf containing v.
            assert chain[-1] == int(road_index.leaf_of[v]) or not road_index.rnets[chain[-1]].is_leaf

    def test_in_rnet(self, road_index):
        leaf = next(n for n in road_index.rnets if n.is_leaf)
        v = int(leaf.vertices[0])
        assert road_index.in_rnet(leaf.id, v)


class TestAssociationDirectory:
    def test_object_flags(self, road_index, objects400):
        ad = AssociationDirectory(road_index, objects400)
        for o in objects400:
            assert ad.is_object(int(o))

    def test_rnet_flags_propagate(self, road_index, objects400):
        ad = AssociationDirectory(road_index, objects400)
        assert ad.rnet_has_object(road_index.root)
        for o in objects400[:5]:
            leaf = int(road_index.leaf_of[int(o)])
            node = road_index.rnets[leaf]
            while True:
                assert ad.rnet_has_object(node.id)
                if node.parent < 0:
                    break
                node = road_index.rnets[node.parent]

    def test_empty_rnets_unflagged(self, road400, road_index):
        ad = AssociationDirectory(road_index, [0])
        leaf0 = int(road_index.leaf_of[0])
        other_leaves = [
            n.id for n in road_index.rnets if n.is_leaf and n.id != leaf0
        ]
        assert any(not ad.rnet_has_object(leaf) for leaf in other_leaves)

    def test_costs(self, road_index, objects400):
        ad = AssociationDirectory(road_index, objects400)
        assert ad.build_time() >= 0
        assert ad.size_bytes() > 0
