"""QueryEngine service layer: registry, structured results, batch, planner."""

import inspect
import sys

import numpy as np
import pytest

from repro import reference
from repro.engine import (
    AUTO_DENSITY_THRESHOLD,
    IndexCache,
    KNNQuery,
    MethodUnavailable,
    QueryEngine,
    UnknownMethod,
    get_method,
    known_methods,
    method_specs,
    plan_method,
    register_method,
    unregister_method,
)
from repro.graph.generators import road_network
from repro.knn.base import verify_knn_result
from repro.knn.ine import INE
from repro.objects import uniform_objects
from repro.utils.counters import Counters


@pytest.fixture(scope="module")
def engine(road400, objects400):
    return QueryEngine(road400, objects400)


class TestRegistry:
    def test_builtin_methods_registered(self):
        names = known_methods()
        for name in ("ine", "gtree", "road", "disbrw", "ier-phl"):
            assert name in names

    def test_spec_lookup(self):
        spec = get_method("gtree")
        assert spec.name == "gtree"
        assert "gtree" in spec.requires

    def test_unknown_method_lists_known(self):
        with pytest.raises(UnknownMethod) as excinfo:
            get_method("quantum")
        assert "ine" in str(excinfo.value)
        assert excinfo.value.known == tuple(known_methods())
        # UnknownMethod stays a ValueError for old callers.
        assert isinstance(excinfo.value, ValueError)

    def test_register_and_unregister(self, road400, objects400):
        @register_method("test-ine-alias", summary="test alias")
        def _build(bench, objects, **kwargs):
            return INE(bench.graph, objects, **kwargs)

        try:
            assert "test-ine-alias" in known_methods()
            bench = IndexCache(road400)
            alg = bench.make("test-ine-alias", objects400)
            truth = INE(road400, objects400).knn(7, 3)
            assert verify_knn_result(alg.knn(7, 3), truth)
        finally:
            unregister_method("test-ine-alias")
        assert "test-ine-alias" not in known_methods()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_method("ine")(lambda bench, objects: None)

    def test_specs_have_summaries(self):
        for spec in method_specs():
            assert spec.summary, spec.name

    def test_disbrw_unavailable_reports_reason(self, road400, cap_silc):
        cap_silc(50)
        bench = IndexCache(road400)
        assert bench.unavailable_reason("silc") is not None
        with pytest.raises(MethodUnavailable) as excinfo:
            bench.make("disbrw", [0, 1, 2])
        assert excinfo.value.method == "disbrw"
        assert "SILC capped at 50" in excinfo.value.reason
        assert bench.method_availability("disbrw") is not None
        assert bench.method_availability("ine") is None
        assert "disbrw" not in bench.available_methods()


class TestKNNResultBackCompat:
    def test_iterates_as_distance_vertex_pairs(self, engine, road400, objects400):
        result = engine.query(7, 4, method="ine")
        raw = INE(road400, objects400).knn(7, 4)
        assert [(d, v) for d, v in result.neighbors] == raw
        assert list(zip(result.distances, result.vertices)) == raw
        assert result.neighbors[0].as_tuple() == raw[0]
        # A record, not a sequence: the tuple-list surface is gone.
        for op in (len, iter, lambda r: r[0]):
            with pytest.raises(TypeError):
                op(result)

    def test_verify_knn_result_accepts_engine_result(self, engine, road400, objects400):
        result = engine.query(7, 4, method="gtree")
        truth = INE(road400, objects400).knn(7, 4)
        assert verify_knn_result(result.neighbors, truth)

    def test_result_carries_provenance(self, engine):
        result = engine.query(7, 4, method="gtree")
        assert result.method == "gtree"
        assert result.query == KNNQuery(7, 4, method="gtree")
        assert result.time_s > 0
        assert result.distances == sorted(result.distances)

    def test_with_paths(self, engine):
        result = engine.query(7, 3, method="ine", with_paths=True)
        for n in result.neighbors:
            assert n.path is not None
            assert n.path[0] == 7 and n.path[-1] == n.vertex


class TestBatch:
    def test_batch_matches_per_query_calls(self, engine, queries400):
        batch = engine.batch(queries400[:8], k=5, method="gtree")
        assert len(batch) == 8
        for q, result in zip(queries400[:8], batch):
            single = engine.query(q, 5, method="gtree")
            assert result.neighbors == single.neighbors

    def test_batch_of_knnqueries_mixes_methods(self, engine):
        queries = [KNNQuery(3, 2, "ine"), KNNQuery(3, 2, "ier-phl")]
        a, b = engine.batch(queries)
        assert (a.method, b.method) == ("ine", "ier-phl")
        assert verify_knn_result(a.neighbors, b.neighbors)

    def test_explicit_args_override_knnquery_fields(self, engine):
        q = KNNQuery(3, 2)  # method defaults to "auto"
        result = engine.query(q, method="gtree")
        assert result.method == "gtree"
        (batched,) = engine.batch([q], method="ier-phl", k=4)
        assert batched.method == "ier-phl"
        assert batched.query.k == 4
        with_paths = engine.query(q, with_paths=True)
        assert all(n.path is not None for n in with_paths.neighbors)

    def test_batch_requires_k_for_bare_ids(self, engine):
        with pytest.raises(ValueError):
            engine.batch([1, 2, 3])

    def test_batch_reuses_algorithm_instances(self, engine):
        engine.batch([1, 2], k=2, method="ine")
        first = engine.algorithm("ine")
        engine.batch([3, 4], k=2, method="ine")
        assert engine.algorithm("ine") is first


class TestQueryValidation:
    """A malformed request is refused with ``ValueError`` before any
    planning, index build or fallback — by every method."""

    @pytest.mark.parametrize(
        "vertex, k", [(-3, 5), (-1, 1), (300, 5), (10**6, 1), (5, -2)]
    )
    def test_every_method_refuses_without_building(self, vertex, k):
        from repro.utils.counters import BUILD_COUNTERS

        graph = road_network(300, seed=0)
        engine = QueryEngine(graph, uniform_objects(graph, 0.02, seed=1))
        before = BUILD_COUNTERS.as_dict()
        for method in ["auto", *known_methods()]:
            with pytest.raises(ValueError, match="0 <= vertex < 300"):
                engine.query(vertex, k, method=method)
        with pytest.raises(ValueError):
            engine.batch([vertex], k=k, method="gtree")
        assert BUILD_COUNTERS.as_dict() == before
        assert engine.query(299, 0, method="gtree").neighbors == ()

    def test_every_method_answers_k_zero_itself(self):
        # k=0 is a valid request: no neighbours, answered by the method
        # asked for, not by a fallback rung after a method error.
        graph = road_network(400, seed=8)
        engine = QueryEngine(graph, uniform_objects(graph, 0.05, seed=1))
        for method in known_methods():
            result = engine.query(17, 0, method=method)
            assert result.neighbors == (), method
            assert result.degraded is False and result.method == method


class TestAutoPlanner:
    def test_high_density_plans_ine(self, road400):
        objects = uniform_objects(road400, 0.2, seed=1)
        engine = QueryEngine(road400, objects)
        assert engine.plan(k=5) == "ine"
        assert engine.query(3, 2).method == "ine"

    def test_low_density_plans_non_ine(self, road400):
        objects = uniform_objects(road400, 0.005, seed=1, minimum=2)
        engine = QueryEngine(road400, objects)
        planned = engine.plan(k=2)
        assert planned != "ine"
        assert engine.query(3, 2).method == planned

    def test_threshold_boundary(self, road400):
        n = road400.num_vertices
        dense = [0] * int(AUTO_DENSITY_THRESHOLD * n + 1)
        sparse = [0]
        assert plan_method(road400, dense) == "ine"
        assert plan_method(road400, sparse) != "ine"

    def test_custom_threshold(self, road400, objects400):
        engine = QueryEngine(road400, objects400, density_threshold=1.0)
        assert engine.plan() != "ine"

    def test_auto_resolves_per_query(self, engine):
        resolved = engine.resolve_method("auto", k=3)
        assert resolved in known_methods()
        with pytest.raises(UnknownMethod):
            engine.resolve_method("quantum", k=3)


class TestExplain:
    def test_explain_counters_and_timing(self, engine):
        reports = engine.explain(11, 4)
        assert set(reports) == set(engine.available_methods())
        reference = None
        for method, result in reports.items():
            assert result.method == method
            assert result.time_s > 0
            assert result.counters.as_dict(), f"{method} recorded no counters"
            if reference is None:
                reference = result
            else:
                assert verify_knn_result(
                    result.neighbors, reference.neighbors
                ), method

    def test_explain_counter_plumbing_per_method(self, engine):
        reports = engine.explain(11, 4, methods=("ine", "gtree", "road", "ier-phl"))
        assert reports["ine"].counters["expand_settled"] > 0
        assert reports["gtree"].counters["matrix_ops"] > 0
        assert reports["road"].counters["expand_settled"] > 0
        assert reports["ier-phl"].counters["verify_network_computations"] > 0


class TestEngineConstruction:
    def test_shared_workbench(self, road400, objects400):
        bench = IndexCache(road400)
        a = bench.engine(objects400)
        b = a.with_objects(objects400[: len(objects400) // 2])
        assert a.workbench is b.workbench
        # Indexes built through one engine are visible to the other.
        assert a.workbench.gtree is b.workbench.gtree

    def test_counters_kwarg_passthrough(self, engine):
        counters = Counters()
        result = engine.query(5, 3, method="ine", counters=counters)
        assert result.counters is counters
        assert counters["expand_settled"] > 0

    def test_requires_graph_or_workbench(self):
        with pytest.raises(ValueError):
            QueryEngine()


class TestBaseSignature:
    def test_all_methods_accept_counters(self, road400, objects400):
        bench = IndexCache(road400)
        for name in known_methods():
            counters = Counters()
            alg = bench.make(name, objects400)
            result = alg.knn(9, 3, counters=counters)
            assert len(result) == 3, name

    def test_answers_are_python_floats_and_ints(self, engine):
        # QueryEngine._execute converts on the way out, but direct
        # callers of an algorithm (figures, byte-identity tests) see
        # exactly what ``knn`` returns.
        for name in known_methods():
            result = engine.algorithm(name).knn(9, 4)
            assert len(result) == 4, name
            for d, v in result:
                assert type(d) is float, (name, type(d))
                assert type(v) is int, (name, type(v))

    def test_ine_ablation_variants_count_settled(self, road400, objects400):
        for variant in reference.VARIANTS:
            counters = Counters()
            reference.ReferenceINE(road400, objects400, variant=variant).knn(
                9, 3, counters=counters
            )
            assert counters["expand_settled"] > 0, variant


class TestOneImplementationPerMethod:
    """The reproduction is fair by construction: the experiment harness
    (``IndexCache.make``) and the service layer (``QueryEngine.algorithm``)
    run the same code for every method, and none of it is a reference
    loop — except the terminal degradation rung, which is nothing else."""

    @pytest.fixture(scope="class")
    def routes(self):
        graph = road_network(250, seed=13)
        objects = uniform_objects(graph, density=0.04, seed=2, minimum=6)
        return graph, objects, IndexCache(graph), QueryEngine(graph, objects)

    def test_workbench_and_engine_build_the_same_algorithm(self, routes):
        graph, objects, bench, engine = routes
        rng = np.random.default_rng(5)
        queries = [int(q) for q in rng.integers(0, graph.num_vertices, size=6)]
        for name in known_methods():
            made, served = bench.make(name, objects), engine.algorithm(name)
            assert type(made) is type(served), name
            for q in queries:
                cm, cs = Counters(), Counters()
                assert made.knn(q, 4, counters=cm) == served.knn(
                    q, 4, counters=cs
                ), (name, q)
                assert cm.as_dict() == cs.as_dict(), (name, q)

    def test_only_the_terminal_rung_reaches_the_reference_module(
        self, routes, monkeypatch
    ):
        graph, objects, bench, engine = routes

        def boom(*args, **kwargs):
            raise AssertionError("reference loop reached from a production path")

        def owned(obj):
            return getattr(obj, "__module__", None) == reference.__name__

        # Every function of the module — wherever a ``from`` import may
        # have copied it — and every method of its classes.
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and owned(value):
                    monkeypatch.setattr(module, attr, boom)
        for cls in [c for c in vars(reference).values()
                    if inspect.isclass(c) and owned(c)]:
            for attr, value in list(vars(cls).items()):
                if inspect.isfunction(value):
                    monkeypatch.setattr(cls, attr, boom)

        fresh = engine.with_objects(objects)  # constructs under the patch too
        for name in known_methods():
            if name == "ine-graph":
                continue
            assert len(bench.make(name, objects).knn(7, 3)) == 3, name
            assert len(fresh.algorithm(name).knn(7, 3)) == 3, name
        with pytest.raises(AssertionError, match="reference loop"):
            bench.make("ine-graph", objects)
