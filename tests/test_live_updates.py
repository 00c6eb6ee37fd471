"""Live-update engine: metamorphic equivalence of incremental repair.

The contract under test: any delta stream (POI add/remove/move,
travel-weight changes) applied *incrementally* — R-tree point updates,
occurrence-list/association-directory patches, G-tree / ROAD / CH
bounded repair — must leave every structure answering exactly as a
from-scratch rebuild over the final state.  "Exactly" means
byte-identical: ``np.array_equal`` on index matrices, ``==`` on kNN
result tuples.

Weight-delta tests mutate graphs in place, so every one of them builds
its own function-scoped network instead of touching the session-scoped
``road400`` fixture (see the seeding convention in ``conftest.py``).
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.engine.engine import QueryEngine
from repro.graph.generators import road_network
from repro.index.gtree import GTree, GTreeOracle
from repro.index.road import RoadIndex
from repro.knn.gtree_knn import GTreeKNN
from repro.knn.ier import IER, euclidean_knn_brute_force
from repro.knn.ine import INE, ine_knn
from repro.knn.road_knn import RoadKNN
from repro.knn.base import KNNAlgorithm
from repro.objects import uniform_objects
from repro.pathfinding.ch import ContractionHierarchy
from repro.pathfinding.dijkstra import dijkstra_distance
from repro.spatial.rtree import RTree
from repro.store import IndexStore, load_graph, save_graph
from repro.updates import (
    ObjectDelta,
    RepairUnavailable,
    WeightDelta,
    add_object,
    coalesce_weight_deltas,
    move_object,
    net_object_changes,
    remove_object,
    set_weight,
    split_deltas,
)


def fresh_graph(n: int = 300, seed: int = 11):
    """A private mutable graph — never a shared fixture."""
    return road_network(n, seed=seed)


def random_weight_deltas(graph, rng, count, lo=0.5, hi=2.0):
    """Absolute weight deltas scaling random incident edges."""
    deltas = []
    for _ in range(count):
        u = int(rng.integers(0, graph.num_vertices))
        start, end = int(graph.vertex_start[u]), int(graph.vertex_start[u + 1])
        if start == end:
            continue
        j = int(rng.integers(start, end))
        deltas.append(set_weight(
            u, int(graph.edge_target[j]),
            float(graph.edge_weight[j]) * float(rng.uniform(lo, hi)),
        ))
    return deltas


def random_object_deltas(graph, objects, rng, count):
    """A valid add/remove/move stream tracked against the evolving set."""
    present = set(int(o) for o in objects)
    free = sorted(set(range(graph.num_vertices)) - present)
    deltas = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.4 and free:
            v = free.pop(int(rng.integers(0, len(free))))
            present.add(v)
            deltas.append(add_object(v))
        elif roll < 0.7 and len(present) > 1:
            v = int(rng.choice(sorted(present)))
            present.discard(v)
            free.append(v)
            deltas.append(remove_object(v))
        elif free and present:
            src = int(rng.choice(sorted(present)))
            dst = free.pop(int(rng.integers(0, len(free))))
            present.discard(src)
            present.add(dst)
            free.append(src)
            deltas.append(move_object(src, dst))
    return deltas


# ----------------------------------------------------------------------
# Delta types and stream algebra
# ----------------------------------------------------------------------
class TestDeltaTypes:
    def test_object_delta_validation(self):
        with pytest.raises(ValueError):
            ObjectDelta("teleport", 3)
        with pytest.raises(ValueError):
            ObjectDelta("move", 3)  # move needs a target
        assert move_object(3, 9).target == 9

    def test_weight_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            WeightDelta(0, 1, 0.0)
        with pytest.raises(ValueError):
            set_weight(0, 1, -2.0)

    def test_split_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            split_deltas([add_object(1), "not a delta"])
        objs, weights = split_deltas([add_object(1), set_weight(0, 1, 2.0)])
        assert len(objs) == 1 and len(weights) == 1

    def test_net_object_changes_cancel_out(self):
        added, removed = net_object_changes(
            [remove_object(5), add_object(5)], current=[5, 7]
        )
        assert added == [] and removed == []

    def test_net_object_changes_move(self):
        added, removed = net_object_changes([move_object(5, 9)], current=[5])
        assert added == [9] and removed == [5]

    def test_net_object_changes_validates_stream_order(self):
        with pytest.raises(ValueError):
            net_object_changes([add_object(5)], current=[5])
        with pytest.raises(ValueError):
            net_object_changes([remove_object(9)], current=[5])
        # Valid *because* evaluated in order: add then remove the same id.
        added, removed = net_object_changes(
            [add_object(9), remove_object(9)], current=[5]
        )
        assert added == [] and removed == []

    def test_coalesce_last_writer_wins(self):
        merged = coalesce_weight_deltas([
            set_weight(1, 2, 5.0),
            set_weight(3, 4, 7.0),
            set_weight(2, 1, 9.0),  # same undirected edge as the first
        ])
        assert [(d.u, d.v, d.new_weight) for d in merged] == [
            (2, 1, 9.0), (3, 4, 7.0)
        ]


# ----------------------------------------------------------------------
# Graph weight mutation
# ----------------------------------------------------------------------
class TestGraphWeightDeltas:
    def test_applies_both_directions_and_invalidates_caches(self):
        g = fresh_graph()
        fp_before = g.fingerprint()
        u = int(np.argmax(np.diff(g.vertex_start)))
        v = int(g.edge_target[g.vertex_start[u]])
        changed = g.apply_weight_deltas([set_weight(u, v, 123.25)])
        assert len(changed) == 1
        (cu, cv, old, new) = changed[0]
        assert (cu, cv, new) == (u, v, 123.25) and old != new
        # both directed copies mutated
        for a, b in ((u, v), (v, u)):
            s, e = int(g.vertex_start[a]), int(g.vertex_start[a + 1])
            row = g.edge_weight[s:e][g.edge_target[s:e] == b]
            assert np.all(row == 123.25)
        assert g.fingerprint() != fp_before

    def test_missing_edge_and_unknown_vertex_raise(self):
        g = fresh_graph()
        u = 0
        non_neighbor = next(
            v for v in range(g.num_vertices - 1, 0, -1)
            if v not in set(
                g.edge_target[g.vertex_start[0]:g.vertex_start[1]].tolist()
            )
        )
        with pytest.raises(KeyError):
            g.apply_weight_deltas([set_weight(u, non_neighbor, 1.0)])
        with pytest.raises(KeyError):
            g.apply_weight_deltas([set_weight(0, g.num_vertices + 5, 1.0)])

    def test_replay_is_idempotent(self):
        g = fresh_graph()
        rng = np.random.default_rng(2)
        deltas = random_weight_deltas(g, rng, 8)
        first = g.apply_weight_deltas(deltas)
        assert first  # something changed
        assert g.apply_weight_deltas(deltas) == []  # absolute => no-op


# ----------------------------------------------------------------------
# R-tree point maintenance
# ----------------------------------------------------------------------
class TestRTreeMaintenance:
    def test_insert_remove_stream_matches_brute_force(self, road400):
        g = road400
        rng = np.random.default_rng(17)
        live = list(range(0, g.num_vertices, 7))
        tree = RTree(
            [g.x[o] for o in live], [g.y[o] for o in live], items=live,
            node_capacity=8,
        )
        pool = sorted(set(range(g.num_vertices)) - set(live))
        for step in range(60):
            if rng.random() < 0.5 and pool:
                v = pool.pop(int(rng.integers(0, len(pool))))
                tree.insert(float(g.x[v]), float(g.y[v]), v)
                live.append(v)
            elif len(live) > 5:
                v = live.pop(int(rng.integers(0, len(live))))
                assert tree.remove(float(g.x[v]), float(g.y[v]), v)
                pool.append(v)
            q = int(rng.integers(0, g.num_vertices))
            got = []
            cursor = tree.nearest_cursor(float(g.x[q]), float(g.y[q]))
            for _ in range(5):
                nxt = cursor.next()
                if nxt is None:
                    break
                got.append(nxt)
            want = euclidean_knn_brute_force(g, live, q, 5)
            assert [v for _, v in got] == [v for _, v in want]
            assert np.allclose([d for d, _ in got], [d for d, _ in want])

    def test_remove_absent_returns_false(self, road400):
        g = road400
        tree = RTree([g.x[0]], [g.y[0]], items=[0])
        assert not tree.remove(float(g.x[1]), float(g.y[1]), 1)
        assert tree.remove(float(g.x[0]), float(g.y[0]), 0)

    def test_insert_into_empty_tree(self):
        tree = RTree([], [], items=[])
        tree.insert(1.0, 2.0, 42)
        assert tree.nearest_cursor(0.0, 0.0).next()[1] == 42


# ----------------------------------------------------------------------
# Index repair vs pinned-partition rebuild
# ----------------------------------------------------------------------
class TestIndexRepair:
    def test_gtree_repair_bitwise_equals_rebuild(self):
        g = fresh_graph(seed=23)
        gt = GTree(g, tau=32, seed=0)
        rng = np.random.default_rng(5)
        changed = g.apply_weight_deltas(random_weight_deltas(g, rng, 10))
        counters = gt.apply_weight_deltas(changed)
        assert counters["nodes_affected"] > 0
        rebuilt = GTree(g, tau=32, seed=0, partition=gt.partition)
        for a, b in zip(gt.nodes, rebuilt.nodes):
            assert np.array_equal(a.matrix.m, b.matrix.m)
        for s, t in [(0, 100), (5, 250), (77, 130)]:
            assert gt.distance(s, t) == rebuilt.distance(s, t)

    def test_road_repair_bitwise_equals_rebuild(self):
        g = fresh_graph(seed=29)
        rd = RoadIndex(g, levels=3, seed=0)
        rng = np.random.default_rng(6)
        changed = g.apply_weight_deltas(random_weight_deltas(g, rng, 10))
        counters = rd.apply_weight_deltas(changed)
        assert counters["rnets_affected"] > 0
        rebuilt = RoadIndex(g, levels=3, seed=0, partition=rd.partition)
        for a, b in zip(rd.rnets, rebuilt.rnets):
            assert np.array_equal(a.shortcut_matrix, b.shortcut_matrix)

    @staticmethod
    def _one_delta_per_leaf(g, index):
        """A weight delta per leaf: on an intra-leaf edge when the leaf
        has one (the leaf is then a trigger itself), else on any edge."""
        deltas = []
        for node in index.nodes:
            if not node.is_leaf:
                continue
            arcs = [
                (int(u), j)
                for u in node.vertices
                for j in range(g.vertex_start[u], g.vertex_start[u + 1])
            ]
            u, j = next(
                (a for a in arcs if index.leaf_of[g.edge_target[a[1]]] == node.id),
                arcs[0],
            )
            deltas.append(set_weight(
                u, int(g.edge_target[j]), float(g.edge_weight[j]) * 1.3
            ))
        return deltas

    @staticmethod
    def _assert_same_arrays(a, b):
        left, right = a.to_arrays(), b.to_arrays()
        assert left.keys() == right.keys()
        for name in left.keys() - {"build_time"}:
            assert np.array_equal(left[name], right[name]), name

    @pytest.mark.parametrize("make", (
        lambda g, **kw: GTree(g, tau=32, seed=0, **kw),
        lambda g, **kw: RoadIndex(g, levels=3, seed=0, **kw),
    ), ids=("gtree", "road"))
    def test_build_is_repair_of_everything(self, make):
        """The build is the repair routine with every node triggered:
        re-running it over a built index changes nothing, and a repair
        whose deltas reach every leaf (hence every node) equals a
        rebuild on the same partition, array for array."""
        g = fresh_graph(seed=47)
        index = make(g)
        every = set(range(len(index.nodes)))
        assert index.every_node() == (every, every)
        before = {k: np.array(v) for k, v in index.to_arrays().items()}
        counters = index._repair(*index.every_node())
        assert len(every) in counters.values()  # every node was re-solved
        assert counters.get("shortcuts_changed", 0) == 0
        assert counters.get("corrected_recomputed", 0) == 0
        for name, ref in before.items():
            assert np.array_equal(index.to_arrays()[name], ref), name

        changed = g.apply_weight_deltas(coalesce_weight_deltas(
            self._one_delta_per_leaf(g, index)
        ))
        triggers, affected = index.repair_plan(changed)
        assert affected == every and len(triggers) > len(every) // 2
        index.apply_weight_deltas(changed)
        self._assert_same_arrays(index, make(g, partition=index.partition))

    def test_ch_repair_exact_decrease_only(self):
        g = fresh_graph(seed=31)
        ch = ContractionHierarchy(g)
        rng = np.random.default_rng(7)
        # Coalesce: two generated deltas on one edge would otherwise make
        # the second application an increase relative to the first.
        changed = g.apply_weight_deltas(coalesce_weight_deltas(
            random_weight_deltas(g, rng, 8, lo=0.4, hi=0.95)
        ))
        counters = ch.apply_weight_deltas(changed)
        assert counters["full_recontraction"] == 0
        assert counters["vertices_recontracted"] > 0
        for s, t in [(0, 150), (20, 280), (99, 33), (7, 7)]:
            assert ch.distance(s, t) == pytest.approx(
                dijkstra_distance(g, s, t), rel=1e-12
            )

    def test_ch_repair_exact_with_increases(self):
        g = fresh_graph(seed=37)
        ch = ContractionHierarchy(g)
        rng = np.random.default_rng(8)
        changed = g.apply_weight_deltas(
            random_weight_deltas(g, rng, 8, lo=0.8, hi=2.5)
        )
        assert any(new > old for _, _, old, new in changed)
        counters = ch.apply_weight_deltas(changed)
        assert counters["full_recontraction"] == 1
        for s, t in [(0, 150), (20, 280), (99, 33)]:
            assert ch.distance(s, t) == pytest.approx(
                dijkstra_distance(g, s, t), rel=1e-12
            )

    def test_repair_unavailable_after_serialisation_loses_provenance(self):
        g = fresh_graph(seed=41)
        gt = GTree(g, tau=32, seed=0)
        loaded = GTree.from_arrays(g, gt.to_arrays())
        delta = [(0, int(g.edge_target[0]), 1.0, 2.0)]
        with pytest.raises(RepairUnavailable):
            loaded.apply_weight_deltas(delta)
        ch = ContractionHierarchy(g)
        arrays = ch.to_arrays()
        for key in list(arrays):
            if key.startswith("applied"):
                del arrays[key]  # a pre-provenance artifact
        loaded_ch = ContractionHierarchy.from_arrays(g, arrays)
        with pytest.raises(RepairUnavailable):
            loaded_ch.apply_weight_deltas(delta)
        # With provenance intact the round-tripped CH repairs fine.
        restored = ContractionHierarchy.from_arrays(g, ch.to_arrays())
        changed = g.apply_weight_deltas([set_weight(
            0, int(g.edge_target[0]), float(g.edge_weight[0]) * 0.5
        )])
        restored.apply_weight_deltas(changed)
        assert restored.distance(0, 200) == pytest.approx(
            dijkstra_distance(g, 0, 200), rel=1e-12
        )


# ----------------------------------------------------------------------
# Engine-level metamorphic equivalence
# ----------------------------------------------------------------------
class TestEngineApplyUpdates:
    METHODS = ("ine", "gtree", "road", "ier-gt")

    @pytest.mark.parametrize("stream_seed", (1, 2))
    def test_incremental_equals_rebuild_byte_identical(self, stream_seed):
        g = fresh_graph(seed=43)
        objects = uniform_objects(g, density=0.03, seed=5)
        engine = QueryEngine(g, objects)
        for method in self.METHODS:
            engine.algorithm(method)  # warm pre-delta instances
        gtree_partition = engine.workbench.gtree.partition
        road_partition = engine.workbench.road.partition

        rng = np.random.default_rng(stream_seed)
        deltas = (
            random_object_deltas(g, objects, rng, 8)
            + random_weight_deltas(g, rng, 8)
        )
        report = engine.apply_updates(deltas)
        assert report.weights_changed > 0
        assert "gtree" in report.repaired and "road" in report.repaired

        gt2 = GTree(g, seed=0, partition=gtree_partition)
        rd2 = RoadIndex(g, seed=0, partition=road_partition)
        final = engine.objects
        rebuilt = {
            "ine": INE(g, final),
            "gtree": GTreeKNN(gt2, final),
            "road": RoadKNN(rd2, final),
            "ier-gt": IER(g, final, GTreeOracle(gt2)),
        }
        queries = rng.integers(0, g.num_vertices, size=12).tolist()
        for method in self.METHODS:
            for q in queries:
                inc = [
                    (n.distance, n.vertex)
                    for n in engine.query(q, 5, method=method).neighbors
                ]
                ref = [(float(d), int(v)) for d, v in rebuilt[method].knn(q, 5)]
                assert inc == ref, (method, q)

    def test_update_through_store_loaded_graph(self, tmp_path):
        """A graph mapped from the store takes live weight updates: it
        gets a private ``edge_weight`` at the first write, everything
        else stays mapped, and the store's pages are never written to."""
        twin = fresh_graph(seed=43)
        store = IndexStore(tmp_path / "store")
        info = save_graph(store, twin)
        payload = store.root / store.info("graph", info.key).file
        on_disk = {p.name: p.read_bytes() for p in sorted(payload.iterdir())}

        loaded = load_graph(store, info.key)
        mapped = {name: getattr(loaded, name) for name, _ in loaded._CSR_FIELDS}
        assert not any(arr.flags.writeable for arr in mapped.values())

        objects = uniform_objects(twin, density=0.03, seed=5)
        engines = QueryEngine(loaded, objects), QueryEngine(twin, objects)
        rng = np.random.default_rng(7)
        deltas = random_weight_deltas(twin, rng, 8)
        for engine in engines:
            for method in self.METHODS:
                engine.algorithm(method)  # warm pre-delta instances
            report = engine.apply_updates(deltas)
            assert report.weights_changed > 0
            assert "gtree" in report.repaired and "road" in report.repaired
        assert loaded.fingerprint() == twin.fingerprint()

        queries = rng.integers(0, twin.num_vertices, size=12).tolist()
        for method in self.METHODS:
            for q in queries:
                from_store, in_memory = (
                    e.query(q, 5, method=method).neighbors for e in engines
                )
                assert from_store == in_memory, (method, q)

        # Only edge_weight went private; the other four are the same
        # read-only views of the map they were before the update.
        assert loaded.edge_weight.flags.writeable
        assert not np.shares_memory(loaded.edge_weight, mapped["edge_weight"])
        for name in ("vertex_start", "edge_target", "x", "y"):
            assert np.shares_memory(getattr(loaded, name), mapped[name]), name
            assert not getattr(loaded, name).flags.writeable, name
        assert {
            p.name: p.read_bytes() for p in sorted(payload.iterdir())
        } == on_disk
        assert load_graph(store, info.key).fingerprint() != loaded.fingerprint()

    def test_object_report_counts_and_set_evolution(self):
        g = fresh_graph(seed=47)
        objects = sorted(uniform_objects(g, density=0.03, seed=5))
        engine = QueryEngine(g, objects)
        free = sorted(set(range(g.num_vertices)) - set(objects))
        report = engine.apply_updates([
            add_object(free[0]),
            remove_object(objects[0]),
            move_object(objects[1], free[1]),
        ])
        assert report.objects_added == 2
        assert report.objects_removed == 2
        assert report.weights_changed == 0
        assert free[0] in engine.objects and free[1] in engine.objects
        assert objects[0] not in engine.objects

    def test_unpatchable_instance_is_dropped_and_rebuilt(self):
        g = fresh_graph(seed=53)
        objects = sorted(uniform_objects(g, density=0.03, seed=5))
        engine = QueryEngine(g, objects)
        engine.algorithm("ine")
        # Plant an instance whose object index cannot be patched.
        stubborn = KNNAlgorithm()
        engine._algorithms[("stubborn", ())] = stubborn
        free = sorted(set(range(g.num_vertices)) - set(objects))
        report = engine.apply_updates([add_object(free[0])])
        assert "stubborn-instance" in report.dropped
        assert ("stubborn", ()) not in engine._algorithms
        # The patchable instance survived and answers for the new set.
        truth = ine_knn(g, engine.objects, free[0], 3)
        got = [
            (n.distance, n.vertex)
            for n in engine.query(free[0], 3, method="ine").neighbors
        ]
        assert got == [(float(d), int(v)) for d, v in truth]

    def test_empty_delta_stream_is_a_cheap_no_op(self):
        g = fresh_graph(seed=59)
        engine = QueryEngine(g, [1, 2, 3])
        report = engine.apply_updates([])
        assert report.to_dict()["weights_changed"] == 0
        assert report.repaired == {} and report.dropped == []


# ----------------------------------------------------------------------
# Server: cache-invalidation rules and the writer/reader race
# ----------------------------------------------------------------------
class TestServerUpdates:
    def _server(self, g, objects, **kwargs):
        from repro.server import KNNServer

        engine = QueryEngine(g, objects)
        kwargs.setdefault("workers", 2)
        return KNNServer(engine, **kwargs)

    @staticmethod
    def _await_progress(done, by, timeout_s=10.0):
        """Block until every reader finished ``by`` more requests — a
        count, not a sleep, so what the readers get to see does not
        depend on how the scheduler treats them."""
        targets = [n + by for n in done]
        deadline = time.monotonic() + timeout_s
        while any(n < target for n, target in zip(done, targets)):
            assert time.monotonic() < deadline, "readers stalled"
            time.sleep(0.001)

    def test_weight_update_invalidates_whole_cache(self):
        g = fresh_graph(seed=61)
        objects = sorted(uniform_objects(g, density=0.03, seed=5))
        with self._server(g, objects) as server:
            server.query(10, 4, "ine")
            assert server.query(10, 4, "ine").cache_hit
            u = 0
            v = int(g.edge_target[0])
            server.apply_updates([
                set_weight(u, v, float(g.edge_weight[0]) * 2.0)
            ])
            assert server.cache.stats()["size"] == 0
            response = server.query(10, 4, "ine")
            assert not response.cache_hit
            assert response.result.neighbors == (
                server.engine_for().query(10, 4, "ine").neighbors
            )
            truth = ine_knn(g, objects, 10, 4)
            got = [(n.distance, n.vertex) for n in response.result.neighbors]
            assert got == [(float(d), int(v)) for d, v in truth]

    def test_object_update_invalidates_only_its_category(self):
        g = fresh_graph(seed=67)
        objects = sorted(uniform_objects(g, density=0.03, seed=5))
        other = sorted(uniform_objects(g, density=0.02, seed=9))
        with self._server(g, objects, categories={"fuel": other}) as server:
            server.query(10, 4, "ine")
            server.query(10, 4, "ine", category="fuel")
            free = sorted(set(range(g.num_vertices)) - set(objects))
            report = server.apply_updates([add_object(free[0])])
            assert report.objects_added == 1
            # fuel's entry survived the default category's invalidation
            assert server.query(10, 4, "ine", category="fuel").cache_hit
            response = server.query(10, 4, "ine")
            assert not response.cache_hit
            assert response.result.neighbors == (
                server.engine_for().query(10, 4, "ine").neighbors
            )
            truth = ine_knn(g, objects + [free[0]], 10, 4)
            got = [(n.distance, n.vertex) for n in response.result.neighbors]
            assert got == [(float(d), int(v)) for d, v in truth]

    def test_failing_repair_never_leaves_stale_cache(self):
        """A weight update whose index repair *fails* must still
        invalidate every cached answer: the graph already mutated even
        though the repair did not, so a surviving entry — or serving the
        unrepaired index — would be a stale (wrong) answer with no
        provenance.
        """
        from repro.resilience import FaultPlan, FaultSpec, plan_installed

        g = fresh_graph(seed=73)
        shadow = fresh_graph(seed=73)  # identical twin for ground truth
        objects = sorted(uniform_objects(g, density=0.03, seed=5))
        with self._server(g, objects) as server:
            stale = server.query(10, 4, "gtree")
            assert stale.ok
            assert server.query(10, 4, "gtree").cache_hit
            # Inflate the first edge out of the query vertex so the
            # cached answer is provably wrong afterwards.
            j = int(g.vertex_start[10])
            v = int(g.edge_target[j])
            delta = set_weight(10, v, float(g.edge_weight[j]) * 50.0)
            plan = FaultPlan(seed=1, specs=(
                FaultSpec("index.repair", probability=1.0),
            ))
            with plan_installed(plan):
                report = server.apply_updates([delta])
            assert report.weight_changes  # the graph did mutate
            assert "gtree" in report.dropped  # repair failed -> dropped
            assert server.cache.stats()["size"] == 0
            response = server.query(10, 4, "gtree")
            assert response.ok and not response.cache_hit
            assert not response.degraded  # rebuilt, not fallback
            truth_engine = QueryEngine(shadow, objects)
            truth_engine.apply_updates([delta])
            truth = truth_engine.query(10, 4, method="gtree")
            assert response.result.neighbors == truth.neighbors
            assert response.result.neighbors != stale.result.neighbors

    def test_readers_racing_writer_never_see_torn_state(self):
        """The concurrency regression: cached answers racing live updates.

        A writer thread alternates weight-delta batches (W1 <-> W2) and
        ``with_objects`` swaps (A <-> B) while reader threads hammer a
        small query pool through the result cache.  Every OK answer must
        be byte-identical to one of the four (object set, weight state)
        ground truths — a half-repaired index or a stale cache entry
        surviving its invalidation would produce an answer outside that
        set.  After the writer quiesces, answers must match the final
        state exactly.
        """
        n, seed = 250, 71
        g = fresh_graph(n, seed=seed)
        shadow = fresh_graph(n, seed=seed)  # identical; never served
        objects_a = sorted(uniform_objects(g, density=0.04, seed=5))
        objects_b = sorted(objects_a[: len(objects_a) // 2]
                           + [v for v in range(0, n, 11)
                              if v not in objects_a])
        rng = np.random.default_rng(9)
        w2 = coalesce_weight_deltas(random_weight_deltas(shadow, rng, 6))
        w1 = [  # restores the original weights (absolute semantics)
            set_weight(d.u, d.v, float(
                shadow.edge_weight[
                    int(shadow.vertex_start[d.u])
                    + shadow.edge_target[
                        shadow.vertex_start[d.u]:shadow.vertex_start[d.u + 1]
                    ].tolist().index(d.v)
                ]
            ))
            for d in w2
        ]
        pool = [3, 47, 101, 166, 222]
        k = 4
        truths = {}
        for wname, batch in (("w1", w1), ("w2", w2)):
            shadow.apply_weight_deltas(batch)
            for oname, objs in (("a", objects_a), ("b", objects_b)):
                for q in pool:
                    truths[(q, oname, wname)] = [
                        (float(d), int(v))
                        for d, v in ine_knn(shadow, objs, q, k)
                    ]
        shadow.apply_weight_deltas(w1)  # leave shadow at w1 (hygiene)

        with self._server(g, objects_a, workers=3) as server:
            stop = threading.Event()
            observed = []
            hits = []
            observed_lock = threading.Lock()

            done = [0, 0, 0]

            def reader(me):
                i = 0
                while not stop.is_set():
                    q = pool[i % len(pool)]
                    i += 1
                    response = server.query(q, k, "ine", timeout=10.0)
                    if response.ok:
                        got = [
                            (n.distance, n.vertex)
                            for n in response.result.neighbors
                        ]
                        with observed_lock:
                            observed.append((q, got))
                            hits.append(response.cache_hit)
                    done[me] += 1

            readers = [
                threading.Thread(target=reader, args=(me,))
                for me in range(len(done))
            ]
            for t in readers:
                t.start()
            for round_ in range(6):
                server.apply_updates(w2 if round_ % 2 == 0 else w1)
                server.with_objects(
                    objects_b if round_ % 2 == 0 else objects_a
                )
                # Twice round the pool: every key is asked again in the
                # state it was just cached in, so the next update races
                # readers that are being answered from the cache.
                self._await_progress(done, 2 * len(pool))
            # final state: weights w1, objects a
            server.apply_updates(w1)
            server.with_objects(objects_a)
            stop.set()
            for t in readers:
                t.join()

            assert observed, "readers never completed a query"
            assert any(hits) and not all(hits)
            for q, got in observed:
                valid = [
                    truths[(q, oname, wname)]
                    for oname in ("a", "b")
                    for wname in ("w1", "w2")
                ]
                assert got in valid, (q, got)
            for q in pool:
                response = server.query(q, k, "ine")
                got = [
                    (n.distance, n.vertex)
                    for n in response.result.neighbors
                ]
                assert got == truths[(q, "a", "w1")], q


    def test_miss_queued_across_an_update_is_not_cached_under_its_old_key(self):
        """A miss carries the key ``submit`` built into the queue.  If an
        update lands before a worker reaches it, the answer belongs to
        the new state: cached under the old key it would be served as a
        hit once the object set came back to the old fingerprint."""
        g = fresh_graph(250, seed=71)
        q, k = 47, 4
        objects = sorted(set(uniform_objects(g, density=0.04, seed=5)) - {q})
        v = next(
            int(t)
            for t in g.edge_target[g.vertex_start[q]:g.vertex_start[q + 1]]
            if int(t) not in objects
        )
        without_v = [(float(d), int(x)) for d, x in ine_knn(g, objects, q, k)]
        with_v = [(float(d), int(x)) for d, x in ine_knn(g, objects + [v], q, k)]
        assert with_v != without_v

        def answer(response):
            assert response.ok
            return [(n.distance, n.vertex) for n in response.result.neighbors]

        server = self._server(g, objects, workers=1)
        with server._lock:
            server._running = True  # accept submits, no worker draining
        try:
            queued = server.submit(q, k, "ine")
            server.apply_updates([add_object(v)])
            server._spawn_worker()
            assert answer(queued.result(timeout=10)) == with_v
            server.apply_updates([remove_object(v)])
            assert answer(server.query(q, k, "ine")) == without_v
        finally:
            server.stop()

    def test_cached_hot_keys_never_serve_an_update_that_returned(self):
        """Readers hammer one *cached* key — answered on their own
        threads, outside the update lock — while a writer walks through
        states whose answers all differ.  An answer may belong to the
        state current when the request was submitted or to any later
        one (the request raced that update), never to one an
        ``apply_updates`` that had already returned replaced.
        """
        n, q, k = 250, 47, 4
        g = fresh_graph(n, seed=71)
        shadow = fresh_graph(n, seed=71)  # identical; never served
        objects = sorted(
            set(uniform_objects(g, density=0.04, seed=5)) - {q}
        )
        incident = range(int(g.vertex_start[q]), int(g.vertex_start[q + 1]))
        neighbours = [int(g.edge_target[j]) for j in incident]
        base = [float(g.edge_weight[j]) for j in incident]
        extra = [v for v in neighbours if v not in objects][:2]
        assert extra, "query vertex needs an object-free neighbour"

        def stretch(factor):
            # Every path out of q starts on an incident edge, so each
            # factor moves every distance in the answer.
            return [
                set_weight(q, v, w * factor)
                for v, w in zip(neighbours, base)
            ]

        batches = []
        for i, v in enumerate(extra):
            batches += [stretch(1.1 + 0.2 * i), [add_object(v)]]
        for i, v in enumerate(extra):
            batches += [stretch(1.6 + 0.2 * i), [remove_object(v)]]
        present = list(objects)
        truths = [ine_knn(shadow, present, q, k)]
        for batch in batches:
            object_deltas, weight_deltas = split_deltas(batch)
            shadow.apply_weight_deltas(weight_deltas)
            for delta in object_deltas:
                if delta.kind == "add":
                    present.append(delta.vertex)
                else:
                    present.remove(delta.vertex)
            truths.append(ine_knn(shadow, present, q, k))
        truths = [[(float(d), int(v)) for d, v in t] for t in truths]
        assert all(a != b for a, b in zip(truths, truths[1:]))

        with self._server(g, objects, workers=2) as server:
            assert server.query(q, k, "ine").ok  # the key is hot
            returned = [0]  # update batches that have returned
            stop = threading.Event()
            observed = []
            done = [0, 0, 0]

            def reader(me):
                while not stop.is_set():
                    floor = returned[0]
                    response = server.query(q, k, "ine", timeout=10.0)
                    observed.append((
                        floor,
                        response.cache_hit,
                        [(n.distance, n.vertex)
                         for n in response.result.neighbors]
                        if response.ok else response.status,
                    ))
                    done[me] += 1

            readers = [
                threading.Thread(target=reader, args=(me,))
                for me in range(len(done))
            ]
            # Switch threads every few bytecodes: a reader is preempted
            # between reading the category's state and probing the cache.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in readers:
                    t.start()
                self._await_progress(done, 5)
                for batch in batches:
                    server.apply_updates(batch)
                    returned[0] += 1
                    # The key is hot again before the next update races it.
                    self._await_progress(done, 5)
            finally:
                sys.setswitchinterval(interval)
                stop.set()
            for t in readers:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in readers)

        assert any(hit for _, hit, _ in observed)
        for floor, _, got in observed:
            assert got in truths[floor:], (floor, got)
        assert {floor for floor, _, _ in observed} >= {0, len(batches)}
