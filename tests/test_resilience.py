"""Resilience layer: fault injection, taxonomy, retry/breaker primitives,
quarantine, and the engine's graceful-degradation fallback chain."""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro.engine import QueryEngine
from repro.engine.registry import MethodUnavailable, UnknownMethod
from repro.engine.workbench import IndexCache
from repro.graph.generators import road_network
from repro.knn.base import verify_knn_result
from repro.objects import uniform_objects
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    Heartbeats,
    InjectedFault,
    KernelFault,
    RetryPolicy,
    Supervisor,
    WorkerKilled,
    classify,
    clear_plan,
    current_plan,
    fault_check,
    install_plan,
    is_degradable,
    is_transient,
    plan_installed,
    quarantine_counts,
    reset_quarantine_counts,
)
from repro.server import KNNServer, UnknownCategory
from repro.store import (
    ArtifactMissing,
    IndexStore,
    StoreCorruption,
    StoreError,
)
from repro.updates import RepairUnavailable


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no fault plan installed."""
    clear_plan()
    yield
    clear_plan()


# ----------------------------------------------------------------------
# FaultPlan / FaultSpec
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_no_plan_is_a_noop(self):
        assert current_plan() is None
        fault_check("kernel.sssp")  # must not raise

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec("kernel.matmul")
        with pytest.raises(ValueError):
            FaultSpec("kernel.sssp", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec("worker.stall", stall_s=-1)

    def test_nth_calls_fire_deterministically(self):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec("store.load", nth_calls=(2, 4)),
        ))
        fired = []
        with plan_installed(plan):
            for i in range(1, 6):
                try:
                    fault_check("store.load")
                    fired.append(False)
                except StoreCorruption:
                    fired.append(True)
        assert fired == [False, True, False, True, False]
        snap = plan.snapshot()
        assert snap["calls"] == {"store.load": 5}
        assert snap["fired"] == {"store.load": 2}

    def test_probability_is_seed_deterministic(self):
        def run(seed):
            plan = FaultPlan(seed=seed, specs=(
                FaultSpec("kernel.sssp", probability=0.3),
            ))
            outcomes = []
            with plan_installed(plan):
                for _ in range(50):
                    try:
                        fault_check("kernel.sssp")
                        outcomes.append(0)
                    except KernelFault:
                        outcomes.append(1)
            return outcomes

        assert run(7) == run(7)  # exact replay
        assert run(7) != run(8)  # the seed matters
        assert 0 < sum(run(7)) < 50

    def test_between_window_bounds_probability(self):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec("kernel.sssp", probability=1.0, between=(3, 4)),
        ))
        fired = []
        with plan_installed(plan):
            for _ in range(6):
                try:
                    fault_check("kernel.sssp")
                    fired.append(False)
                except KernelFault:
                    fired.append(True)
        assert fired == [False, False, True, True, False, False]

    def test_max_fires_caps(self):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec("kernel.sssp", probability=1.0, max_fires=2),
        ))
        fires = 0
        with plan_installed(plan):
            for _ in range(5):
                try:
                    fault_check("kernel.sssp")
                except KernelFault:
                    fires += 1
        assert fires == 2

    def test_stall_sleeps_instead_of_raising(self):
        plan = FaultPlan(seed=0, specs=(
            FaultSpec("worker.stall", nth_calls=(1,), stall_s=0.05),
        ))
        with plan_installed(plan):
            start = time.perf_counter()
            fault_check("worker.stall")  # no raise
            assert time.perf_counter() - start >= 0.05

    def test_default_errors_match_points(self):
        for point, exc_type in (
            ("worker.die", WorkerKilled),
            ("kernel.sssp", KernelFault),
            ("store.save", StoreCorruption),
            ("index.build", InjectedFault),
        ):
            plan = FaultPlan(specs=(FaultSpec(point, nth_calls=(1,)),))
            with plan_installed(plan):
                with pytest.raises(exc_type):
                    fault_check(point)

    def test_custom_error_factory(self):
        plan = FaultPlan(specs=(
            FaultSpec("store.load", nth_calls=(1,), error=lambda: OSError("disk")),
        ))
        with plan_installed(plan):
            with pytest.raises(OSError):
                fault_check("store.load")

    def test_plan_installed_restores_previous(self):
        outer = install_plan(FaultPlan(seed=1))
        with plan_installed(FaultPlan(seed=2)) as inner:
            assert current_plan() is inner
        assert current_plan() is outer

    def test_first_triggered_spec_wins(self):
        plan = FaultPlan(specs=(
            FaultSpec("kernel.sssp", nth_calls=(1,), error=lambda: KernelFault("a")),
            FaultSpec("kernel.sssp", nth_calls=(1,), error=lambda: KernelFault("b")),
        ))
        with plan_installed(plan):
            with pytest.raises(KernelFault, match="a"):
                fault_check("kernel.sssp")


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
class TestClassify:
    @pytest.mark.parametrize("exc,name,transient,degradable", [
        (WorkerKilled("x"), "worker", False, False),
        (KernelFault("x"), "kernel", True, True),
        (InjectedFault("x"), "injected", True, True),
        (UnknownMethod("nope", ["ine"]), "client", False, False),
        (UnknownCategory("nope", [None]), "client", False, False),
        (MethodUnavailable("disbrw", "capped"), "unavailable", False, False),
        (StoreCorruption("x"), "corruption", True, True),
        (ArtifactMissing("x"), "store", True, True),
        (StoreError("x"), "store", True, True),
        (RepairUnavailable("x"), "repair", True, False),
        (TimeoutError("x"), "timeout", True, False),
        (MemoryError(), "resource", False, True),
        (ValueError("x"), "client", False, False),
        (OSError("x"), "io", True, True),
        (RuntimeError("x"), "internal", False, True),
    ])
    def test_verdicts(self, exc, name, transient, degradable):
        verdict = classify(exc)
        assert verdict.name == name
        assert verdict.transient is transient
        assert verdict.degradable is degradable
        assert is_transient(exc) is transient
        assert is_degradable(exc) is degradable


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=5, base_s=0.01, cap_s=0.03, multiplier=2.0,
            jitter=0.0, seed=1,
        )
        assert policy.backoff_s(1) == pytest.approx(0.01)
        assert policy.backoff_s(2) == pytest.approx(0.02)
        assert policy.backoff_s(3) == pytest.approx(0.03)  # capped
        assert policy.backoff_s(4) == pytest.approx(0.03)

    def test_jitter_stays_in_band_and_is_seeded(self):
        a = RetryPolicy(base_s=0.01, jitter=0.5, seed=9)
        b = RetryPolicy(base_s=0.01, jitter=0.5, seed=9)
        seq_a = [a.backoff_s(1) for _ in range(10)]
        seq_b = [b.backoff_s(1) for _ in range(10)]
        assert seq_a == seq_b  # deterministic in the seed
        assert all(0.005 <= s <= 0.01 for s in seq_a)
        assert len(set(seq_a)) > 1  # actually jittered


# ----------------------------------------------------------------------
# CircuitBreaker (fake clock: the full state machine, no sleeping)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, threshold=2, cooldown=10.0):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=threshold,
            cooldown_s=cooldown,
            clock=lambda: clock["now"],
        )
        return breaker, clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.allow() is False

    def test_half_open_single_probe_then_close(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock["now"] = 4.9
        assert breaker.allow() is False
        clock["now"] = 5.1
        assert breaker.allow() is True  # the probe ticket
        assert breaker.state == HALF_OPEN
        assert breaker.allow() is False  # probe in flight: no second
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow() is True
        snap = breaker.snapshot()
        assert snap["opened_total"] == 1
        assert snap["closed_after_open"] == 1

    def test_failed_probe_reopens(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock["now"] = 6.0
        assert breaker.allow() is True
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.snapshot()["opened_total"] == 2
        clock["now"] = 10.0  # new cooldown counts from the re-trip
        assert breaker.allow() is False
        clock["now"] = 11.1
        assert breaker.allow() is True

    def test_released_probe_hands_the_ticket_back(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock["now"] = 6.0
        assert breaker.allow() is True
        breaker.release()  # no verdict: still half-open, ticket free
        assert breaker.state == HALF_OPEN
        assert breaker.allow() is True
        assert breaker.allow() is False
        breaker.release()
        breaker.record_failure()
        breaker.release()  # closed or open: a no-op
        assert breaker.state == OPEN

    def test_snapshot_open_reports_age(self):
        breaker, clock = self.make(threshold=1)
        clock["now"] = 2.0
        breaker.record_failure()
        clock["now"] = 3.5
        snap = breaker.snapshot()
        assert snap["state"] == OPEN
        assert snap["open_for_s"] == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1)


# ----------------------------------------------------------------------
# Heartbeats / Supervisor
# ----------------------------------------------------------------------
class TestSupervision:
    def test_heartbeat_ages(self):
        beats = Heartbeats()
        assert beats.age_s("w1") is None
        beats.beat("w1")
        assert beats.age_s("w1") < 1.0
        assert "w1" in beats.snapshot()
        beats.drop("w1")
        assert beats.age_s("w1") is None

    def test_supervisor_runs_check_and_survives_errors(self):
        calls = {"n": 0}

        def check():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")

        supervisor = Supervisor(check, interval_s=0.01).start()
        try:
            deadline = time.monotonic() + 2.0
            while calls["n"] < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            supervisor.stop()
        assert calls["n"] >= 3  # kept running past the crash
        assert supervisor.error_count == 1
        assert not supervisor.running

    def test_supervisor_interval_validated(self):
        with pytest.raises(ValueError):
            Supervisor(lambda: None, interval_s=0)


# ----------------------------------------------------------------------
# Quarantine + engine integration
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_corrupt_artifact_quarantined_and_rebuilt(self, tmp_path):
        graph = road_network(150, seed=3)
        store = IndexStore(tmp_path / "store")
        IndexCache(graph, store=store).prebuild(["gtree"])
        (victim,) = [e for e in store.entries() if e.kind == "gtree"]
        member = sorted((store.root / victim.file).glob("*.npy"))[0]
        member.write_bytes(b"garbage")
        reset_quarantine_counts()

        objects = uniform_objects(graph, density=0.05, seed=4)
        engine = QueryEngine(IndexCache(graph, store=store), objects)
        truth = QueryEngine(graph, objects).query(7, 3, method="gtree")
        healed = engine.query(7, 3, method="gtree")
        assert not healed.degraded  # same method succeeded via rebuild
        assert healed.neighbors == truth.neighbors
        assert quarantine_counts(store.root) == {"gtree": 1}
        (moved,) = (store.root / "quarantine").glob("*.flat")
        assert (moved / member.name).read_bytes() == b"garbage"
        reset_quarantine_counts()

    def test_counts_scoped_by_root(self, tmp_path):
        reset_quarantine_counts()
        graph = road_network(120, seed=3)
        store = IndexStore(tmp_path / "a")
        IndexCache(graph, store=store).prebuild(["gtree"])
        (victim,) = [e for e in store.entries() if e.kind == "gtree"]
        sorted((store.root / victim.file).glob("*.npy"))[0].write_bytes(b"junk")
        _ = IndexCache(graph, store=store).gtree  # quarantine + rebuild
        assert quarantine_counts(store.root) == {"gtree": 1}
        assert quarantine_counts(tmp_path / "elsewhere") == {}
        assert quarantine_counts() == {"gtree": 1}
        reset_quarantine_counts()

    def test_injected_store_fault_tolerated(self, tmp_path):
        """store.save failures never block serving the built index."""
        graph = road_network(150, seed=3)
        objects = uniform_objects(graph, density=0.05, seed=4)
        store = IndexStore(tmp_path / "store")
        engine = QueryEngine(
            IndexCache(graph, store=store), objects
        )
        plan = FaultPlan(seed=1, specs=(
            FaultSpec("store.save", probability=1.0),
        ))
        truth = QueryEngine(graph, objects).query(7, 3, method="gtree")
        with plan_installed(plan):
            result = engine.query(7, 3, method="gtree")
        assert result.neighbors == truth.neighbors
        # Nothing was persisted — every save failed — yet queries ran.
        assert [e for e in store.entries() if e.kind == "gtree"] == []


# ----------------------------------------------------------------------
# Engine graceful degradation
# ----------------------------------------------------------------------
class TestEngineFallback:
    @pytest.fixture()
    def dense_engine(self, road400):
        # Density >= threshold: the planner resolves "auto" to INE,
        # whose SSSP runs through kernel.sssp.
        objects = uniform_objects(road400, density=0.03, seed=5)
        return QueryEngine(road400, objects)

    def test_kernel_fault_falls_back_exactly(self, dense_engine):
        baseline = dense_engine.query(7, 4)
        assert baseline.method == "ine" and not baseline.degraded
        plan = FaultPlan(seed=2, specs=(
            FaultSpec("kernel.sssp", probability=1.0),
        ))
        with plan_installed(plan):
            result = dense_engine.query(7, 4)
        assert result.degraded and result.fallback_from == "ine"
        assert result.method != "ine"
        # Exact: same neighbors; distances equal to float associativity.
        assert result.vertices == baseline.vertices
        assert result.distances == pytest.approx(
            baseline.distances, rel=1e-9
        )

    def test_kernel_fault_degrades_explicit_road(self, dense_engine):
        # ROAD searches its overlay with the INE kernel, so it sits
        # behind the same fault point.
        baseline = dense_engine.query(7, 4, method="road")
        assert baseline.method == "road" and not baseline.degraded
        plan = FaultPlan(seed=5, specs=(
            FaultSpec("kernel.sssp", probability=1.0),
        ))
        with plan_installed(plan):
            result = dense_engine.query(7, 4, method="road")
        assert result.degraded and result.fallback_from == "road"
        assert result.method != "road"
        assert result.vertices == baseline.vertices

    def test_avoid_methods_degrades_without_a_failure(self, dense_engine):
        baseline = dense_engine.query(7, 4)
        result = dense_engine.query(
            7, 4, avoid_methods=frozenset(("ine",))
        )
        assert result.degraded and result.fallback_from == "ine"
        assert result.vertices == baseline.vertices

    def test_terminal_rung_is_python_ine(self, dense_engine):
        baseline = dense_engine.query(7, 4)
        # Avoid every indexed fallback; the kernel fault breaks INE —
        # only the per-edge reference loop (no index, no kernel) can
        # still answer.
        plan = FaultPlan(seed=3, specs=(
            FaultSpec("kernel.sssp", probability=1.0),
        ))
        with plan_installed(plan):
            result = dense_engine.query(
                7, 4,
                avoid_methods=frozenset(("ier-gt", "gtree", "ier-phl")),
            )
        assert result.degraded and result.method == "ine-graph"
        assert result.fallback_from == "ine"
        assert result.neighbors == baseline.neighbors

    def test_index_build_fault_degrades_explicit_method(self, road400):
        objects = uniform_objects(road400, density=0.03, seed=5)
        engine = QueryEngine(road400, objects)
        truth = engine.query(9, 3, method="ine")
        plan = FaultPlan(seed=4, specs=(
            FaultSpec("index.build", nth_calls=(1,)),
        ))
        with plan_installed(plan):
            result = engine.query(9, 3, method="gtree")
        assert result.degraded and result.fallback_from == "gtree"
        assert result.vertices == truth.vertices

    def test_non_degradable_errors_propagate(self, dense_engine):
        with pytest.raises(UnknownMethod):
            dense_engine.query(7, 4, method="not-a-method")

    def test_fallback_chain_shape(self, dense_engine):
        chain = dense_engine.fallback_chain("ine")
        assert chain == ["ier-gt", "gtree", "ier-phl", "ine-graph"]
        avoided = dense_engine.fallback_chain(
            "ine", frozenset(("gtree", "ier-gt"))
        )
        assert avoided == ["ier-phl", "ine-graph"]
        # The terminal rung has nothing below it.
        assert "ine-graph" not in dense_engine.fallback_chain(
            "ine-graph"
        )

    def test_no_plan_answers_identical_and_undegraded(self, dense_engine):
        a = dense_engine.query(11, 5)
        b = dense_engine.query(11, 5)
        assert not a.degraded and a.fallback_from is None
        assert a.neighbors == b.neighbors


# ----------------------------------------------------------------------
# Chaos: the serving stack end to end under a seeded fault plan
# ----------------------------------------------------------------------
class TestChaos:
    def test_serving_survives_seeded_fault_plan(
        self, tmp_path, closed_loop, hotspot_vertices
    ):
        """Store corruption, random store IO faults, a 5% kernel fault
        rate, a breaker-tripping kernel outage burst and one worker kill
        against a retrying closed loop: >= 99% available, zero wrong
        answers, then a clean recovery once the plan is cleared."""
        seed, k = 8, 5
        graph = road_network(400, seed=seed)
        # Density >= the planner threshold: "auto" resolves to INE, so
        # kernel.sssp faults hit the primary method.
        objects = uniform_objects(graph, density=0.02, seed=seed + 1)
        vertices = hotspot_vertices(
            graph.num_vertices, 100, hot_vertices=32, seed=seed + 2
        )
        truth_engine = QueryEngine(graph, objects)
        truths = [truth_engine.query(v, k) for v in vertices]

        store = IndexStore(tmp_path / "store")
        # The fallback index is stored fault-free; the chaos engine
        # then loads it through the store.load fault point.
        IndexCache(graph, store=store).prebuild(["gtree"])
        server = KNNServer(
            QueryEngine(IndexCache(graph, store=store), objects),
            workers=4, max_batch=8, cache_capacity=0,
            breaker_threshold=4, breaker_cooldown_s=0.4,
            heartbeat_interval_s=0.1, wedge_timeout_s=2.0,
        )
        server.start(warmup_methods=["auto"])
        try:
            with plan_installed(FaultPlan(seed=seed, specs=(
                FaultSpec("store.load", nth_calls=(1,), probability=0.10),
                FaultSpec("store.save", probability=0.25),
                FaultSpec("kernel.sssp", probability=0.05),
                FaultSpec("kernel.sssp", between=(40, 90), probability=1.0),
                FaultSpec("worker.die", nth_calls=(12,)),
            ))):
                responses, _, _ = closed_loop(
                    server, vertices, k, concurrency=8, timeout_s=30.0,
                    retries=3, backoff_s=0.01,
                )
                time.sleep(0.3)  # let the supervisor replace the dead worker

            ok = [r for r in responses if r is not None and r.ok]
            assert len(ok) / len(vertices) >= 0.99, Counter(
                r and r.status for r in responses
            )
            degraded = 0
            for response, truth in zip(responses, truths):
                if response is None or not response.ok:
                    continue
                if response.degraded:
                    # A fallback method: exact up to float associativity.
                    degraded += 1
                    assert verify_knn_result(
                        response.result.neighbors, truth.neighbors
                    )
                else:
                    assert response.result.neighbors == truth.neighbors
            assert degraded >= 1, "the fallback chain never ran"

            # Plan cleared: the breaker cools down and a probe re-closes it.
            deadline = time.monotonic() + 30.0
            while server.health()["breakers"]["ine"]["state"] != "closed":
                assert time.monotonic() < deadline, server.health()
                server.query(vertices[0], k)
                time.sleep(0.1)
            for vertex, truth in zip(vertices[:20], truths):
                response = server.query(vertex, k)
                assert response.ok and not response.degraded
                assert response.result.neighbors == truth.neighbors
            health = server.health()
        finally:
            server.stop()
        assert health["breakers"]["ine"]["opened_total"] >= 1
        assert health["workers"]["restarts_total"] >= 1
        assert sum(quarantine_counts(store.root).values()) >= 1
