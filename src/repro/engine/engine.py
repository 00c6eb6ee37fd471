"""The :class:`QueryEngine` facade — the library's primary query API.

One engine binds a road network (via a shared :class:`IndexCache`) to an
object set and serves kNN queries through any registered method:

    engine = QueryEngine(graph, objects)
    result = engine.query(q, k=5)                  # planner picks a method
    results = engine.batch(queries, k=5)           # amortised workload
    reports = engine.explain(q, k=5)               # every method + counters

Road-network indexes and per-method algorithm instances are built once
and cached, so a batch pays construction cost once — the unit the paper
times.  Swapping POI categories over the same network (the paper's
decoupled-indexing argument) is ``engine.with_objects(new_objects)``,
which shares the index cache and only rebuilds the tiny object indexes.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Union

from repro import obs
from repro.engine.planner import LOW_DENSITY_METHODS, plan_method
from repro.engine.query import (
    KNNQuery,
    KNNResult,
    Neighbor,
    as_queries,
    normalise_query,
)
from repro.engine.registry import (
    TERMINAL_METHOD,
    MethodUnavailable,
    get_method,
)
from repro.engine.workbench import IndexCache
from repro.graph.graph import Graph
from repro.knn.base import KNNAlgorithm
from repro.knn.paths import shortest_paths_to
from repro.obs.tracing import span as _span
from repro.resilience.errors import classify
from repro.utils.counters import Counters


class QueryEngine:
    """Serve kNN queries over one road network and one object set.

    Parameters
    ----------
    graph_or_workbench:
        A :class:`Graph` (a fresh index cache is created for it) or an
        existing :class:`IndexCache` to share indexes with.
    objects:
        Object vertex ids this engine answers queries against.
    density_threshold:
        Override for the auto planner's INE/IER crossover density
        (default :data:`repro.engine.planner.AUTO_DENSITY_THRESHOLD`).
    store:
        Optional :class:`repro.store.IndexStore`.  Indexes are then
        loaded from disk when a matching artifact exists and saved after
        a fresh build, so a restarted service warm-starts instead of
        re-running preprocessing.  Only valid when the engine creates
        its own index cache from a graph; combining it with an existing
        index cache raises ``ValueError`` (attach the store when
        constructing that cache instead).
    """

    def __init__(
        self,
        graph_or_workbench: Union[Graph, IndexCache, None] = None,
        objects: Sequence[int] = (),
        *,
        seed: int = 0,
        tau: Optional[int] = None,
        road_levels: Optional[int] = None,
        density_threshold: Optional[float] = None,
        store=None,
    ) -> None:
        if isinstance(graph_or_workbench, IndexCache):
            workbench = graph_or_workbench
        elif graph_or_workbench is not None:
            workbench = IndexCache(
                graph_or_workbench,
                seed=seed,
                tau=tau,
                road_levels=road_levels,
                store=store,
            )
        else:
            raise ValueError("provide a graph or an IndexCache")
        if store is not None and (
            workbench.store is None
            or workbench.store.root.resolve() != store.root.resolve()
        ):
            # An existing index cache keeps its own (possibly absent) store
            # backing; silently dropping the argument would let a caller
            # believe warm-start is active while every restart rebuilds.
            # An equivalent store (same directory) is accepted.
            raise ValueError(
                "store= has no effect on an existing index cache; construct "
                "the IndexCache with store= instead"
            )
        self.workbench = workbench
        self.graph = workbench.graph
        self.objects = [int(o) for o in objects]
        self.density_threshold = density_threshold
        self._algorithms: Dict[tuple, KNNAlgorithm] = {}
        self._algorithms_lock = threading.Lock()
        #: Engine-level event counters (service statistics rather than
        #: per-query algorithm internals): ``batch_dedup_hits`` records
        #: how many batch entries were answered by reusing an identical
        #: earlier query's result.
        self.counters = Counters()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def density(self) -> float:
        """Object density |O| / |V| — the planner's main signal."""
        return len(self.objects) / max(1, self.graph.num_vertices)

    def available_methods(self) -> List[str]:
        return self.workbench.available_methods()

    def plan(self, k: int = 1) -> str:
        """The method ``method="auto"`` would run for this workload."""
        return plan_method(
            self.graph,
            self.objects,
            k=k,
            bench=self.workbench,
            density_threshold=self.density_threshold,
        )

    def resolve_method(self, method: str = "auto", k: int = 1) -> str:
        if method in (None, "auto"):
            return self.plan(k)
        get_method(method)  # raises UnknownMethod with the known list
        return method

    def algorithm(self, method: str, **kwargs) -> KNNAlgorithm:
        """The cached algorithm instance for ``method`` (built on first use).

        Thread-safe: server workers sharing one engine double-check
        under a lock, so concurrent first uses construct each instance
        exactly once (the underlying road-network indexes are likewise
        built once — ``IndexCache`` holds per-kind build locks).
        """
        key = (method, tuple(sorted(kwargs.items())))
        alg = self._algorithms.get(key)
        if alg is None:
            with self._algorithms_lock:
                alg = self._algorithms.get(key)
                if alg is None:
                    alg = self.workbench.make(method, self.objects, **kwargs)
                    self._algorithms[key] = alg
        return alg

    def with_objects(self, objects: Sequence[int]) -> "QueryEngine":
        """A new engine over the same (shared) indexes, new object set."""
        return QueryEngine(
            self.workbench,
            objects=objects,
            density_threshold=self.density_threshold,
        )

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------
    def invalidate_algorithms(self) -> None:
        """Drop every cached algorithm instance (rebuilt lazily on use).

        Needed after the shared graph's weights change out from under
        this engine — e.g. a sibling engine over the same workbench ran
        :meth:`apply_updates` — because instances snapshot weight-derived
        state at construction (flat weight lists, oracle caches).
        """
        with self._algorithms_lock:
            self._algorithms.clear()

    def apply_updates(self, deltas: Sequence) -> "UpdateReport":
        """Apply a mixed stream of live deltas; return what was touched.

        ``deltas`` mixes :class:`~repro.updates.ObjectDelta` (add /
        remove / move POIs in *this* engine's object set) and
        :class:`~repro.updates.WeightDelta` (absolute travel-weight
        changes on the shared road network).

        Weight deltas flow through
        :meth:`IndexCache.apply_weight_deltas`: the graph mutates once
        and every built index is repaired in place (or dropped when it
        cannot be).  All cached algorithm instances are then discarded —
        they snapshot weights at construction.  Sibling engines sharing
        the workbench must call :meth:`invalidate_algorithms` themselves
        (the server does this for every registered category).

        Object deltas are resolved into net adds/removes against the
        current object set (validated in stream order — adding a present
        object or removing a missing one raises ``ValueError``), then
        pushed into every live algorithm instance via ``update_objects``;
        instances whose object index cannot be patched in place are
        dropped and noted in ``report.dropped``.
        """
        from repro.updates import (
            UpdateReport,
            net_object_changes,
            split_deltas,
        )

        start = time.perf_counter()
        with _span("apply_updates", deltas=len(deltas)):
            obj_deltas, weight_deltas = split_deltas(deltas)
            report = UpdateReport()
            if weight_deltas:
                with _span("weight_deltas", n=len(weight_deltas)):
                    changed, repaired, dropped = (
                        self.workbench.apply_weight_deltas(weight_deltas)
                    )
                report.weight_changes.extend(changed)
                for name, counters in repaired.items():
                    report.merge_repair(name, counters)
                report.dropped.extend(dropped)
                if changed:
                    self.invalidate_algorithms()
            if obj_deltas:
                with _span("object_deltas", n=len(obj_deltas)):
                    added, removed = net_object_changes(
                        obj_deltas, self.objects
                    )
                    report.objects_added = len(added)
                    report.objects_removed = len(removed)
                    if added or removed:
                        removed_set = set(removed)
                        self.objects = [
                            o for o in self.objects if o not in removed_set
                        ] + added
                        with self._algorithms_lock:
                            for key, alg in list(self._algorithms.items()):
                                try:
                                    alg.update_objects(added, removed)
                                except NotImplementedError:
                                    del self._algorithms[key]
                                    report.dropped.append(
                                        f"{key[0]}-instance"
                                    )
        report.elapsed_s = time.perf_counter() - start
        reg = obs.REGISTRY
        if reg.enabled:
            reg.histogram(
                "update_apply_seconds", "engine apply_updates latency"
            ).observe(report.elapsed_s)
            reg.counter(
                "update_weight_changes_total", "effective edge-weight changes"
            ).inc(len(report.weight_changes))
            reg.counter(
                "update_objects_changed_total", "net POI adds + removes"
            ).inc(report.objects_added + report.objects_removed)
            for name in report.dropped:
                reg.counter(
                    "update_dropped_total",
                    "indexes/instances dropped by an update",
                    what=name,
                ).inc()
        return report

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def query(
        self,
        query: Union[int, KNNQuery],
        k: Optional[int] = None,
        method: Optional[str] = None,
        *,
        with_paths: Optional[bool] = None,
        counters: Optional[Counters] = None,
        avoid_methods: frozenset = frozenset(),
    ) -> KNNResult:
        """Answer one kNN query, returning a structured :class:`KNNResult`.

        ``query`` may be a vertex id (``k`` required, ``method`` defaults
        to ``"auto"``) or a :class:`KNNQuery`, whose fields are used
        unless explicitly overridden by these arguments.

        ``method="auto"`` applies the density heuristic from the paper's
        headline result (Figures 11/16/24): when object density
        ``|O| / |V|`` is at or above the planner threshold (default
        ``0.01``, one object per 100 vertices) INE is chosen, because its
        expansion settles almost no vertices before finding k objects; at
        lower densities the first runnable entry of ``ier-gt``,
        ``gtree``, ``ier-phl``, ``ine`` wins.  The resolved method name
        is recorded in ``KNNResult.method``.

        Other parameters: ``with_paths=True`` attaches reconstructed
        shortest paths to each :class:`~repro.engine.query.Neighbor`;
        ``counters`` supplies a
        :class:`~repro.utils.counters.Counters` to record
        algorithm-internal events into (a fresh one is created
        otherwise and returned on the result).

        Graceful degradation: when the resolved method fails with a
        *degradable* error (an index could not be built or loaded, a
        kernel raised, an injected fault fired — see
        :func:`repro.resilience.errors.is_degradable`) the engine walks
        :meth:`fallback_chain` and answers with the first method that
        succeeds.  Every method is exact, so the ``(distance, vertex)``
        answer is identical — only the provenance changes:
        ``KNNResult.degraded`` is True and ``fallback_from`` names the
        method that failed.  ``avoid_methods`` pre-emptively skips
        methods (the server passes the circuit-broken ones), producing
        the same degraded provenance without waiting for the failure.
        Non-degradable errors (bad arguments, repair failures, worker
        control-flow) propagate unchanged.

        Raises ``ValueError`` — before planning, building or degrading —
        unless ``0 <= vertex < |V|`` and ``k >= 0``;
        :class:`~repro.engine.registry.UnknownMethod` for names
        the registry has never seen and
        :class:`~repro.engine.registry.MethodUnavailable` when the named
        method cannot run on this network (e.g. SILC over its vertex
        cap) and every fallback is exhausted.
        """
        q = normalise_query(query, k, method, with_paths)
        if not 0 <= q.vertex < self.graph.num_vertices or q.k < 0:
            raise ValueError(
                f"a query needs 0 <= vertex < {self.graph.num_vertices} "
                f"and k >= 0, got vertex {q.vertex}, k {q.k}"
            )
        c = counters if counters is not None else Counters()
        with _span("query", vertex=q.vertex, k=q.k) as qspan:
            with _span("plan"):
                resolved = self.resolve_method(q.method, q.k)
            qspan.annotate(method=resolved)
            if not self.objects:
                # An empty object set has an exact answer — no neighbors
                # — and several algorithms cannot even be constructed
                # over it (IER's R-tree needs at least one object), so
                # short-circuit before any algorithm instance is built.
                obs.record_query(
                    resolved, 0.0, c, vertex=q.vertex, k=q.k, trace=qspan,
                )
                return KNNResult(
                    query=q, method=resolved, neighbors=(), counters=c,
                    time_s=0.0,
                )
            last_error: Optional[BaseException] = None
            if resolved not in avoid_methods:
                try:
                    return self._execute(q, resolved, c, qspan)
                except Exception as exc:
                    if not classify(exc).degradable:
                        raise
                    last_error = exc
                    self._note_method_error(resolved, exc)
            # Degraded path: the planner's choice failed (or an open
            # circuit breaker told us not to try it).  Built lazily so
            # the healthy hot path never pays for it.
            for name in self.fallback_chain(resolved, avoid_methods):
                try:
                    result = self._execute(
                        q, name, c, qspan, fallback_from=resolved
                    )
                except Exception as exc:
                    if not classify(exc).degradable:
                        raise
                    last_error = exc
                    self._note_method_error(name, exc)
                    continue
                reg = obs.REGISTRY
                if reg.enabled:
                    reg.counter(
                        "engine_fallback_total",
                        "queries answered by a fallback method",
                        from_method=resolved,
                        to_method=name,
                    ).inc()
                return result
            if last_error is not None:
                raise last_error
            raise MethodUnavailable(resolved, "no fallback method available")

    def fallback_chain(
        self, resolved: str, avoid_methods: frozenset = frozenset()
    ) -> List[str]:
        """Ordered method names to try after ``resolved`` failed.

        Planner preference order first (skipping ``resolved``, avoided
        and unavailable methods), then the terminal rung
        :data:`~repro.engine.registry.TERMINAL_METHOD`: INE on the
        per-edge reference loop, which needs no prebuilt index and no
        array backend — it can always answer, just slowly.
        """
        chain: List[str] = []
        for name in LOW_DENSITY_METHODS:
            if name == resolved or name in avoid_methods:
                continue
            if self.workbench.method_availability(name) is not None:
                continue
            chain.append(name)
        if resolved != TERMINAL_METHOD:
            chain.append(TERMINAL_METHOD)
        return chain

    def _note_method_error(self, name: str, exc: BaseException) -> None:
        reg = obs.REGISTRY
        if reg.enabled:
            reg.counter(
                "engine_method_errors_total",
                "query attempts that raised, by method and error class",
                method=name,
                **{"class": classify(exc).name},
            ).inc()

    def _execute(
        self,
        q: KNNQuery,
        method: str,
        c: Counters,
        qspan,
        fallback_from: Optional[str] = None,
    ) -> KNNResult:
        """Run one method end to end (ensure index, search, paths)."""
        with _span("ensure", method=method):
            alg = self.algorithm(method)
        with _span("knn", method=method) as kspan:
            start = time.perf_counter()
            raw = alg.knn(q.vertex, q.k, counters=c)
            elapsed = time.perf_counter() - start
            kspan.annotate(**c.as_dict())
        paths: Dict[int, tuple] = {}
        if q.with_paths:
            with _span("paths", n=len(raw)):
                paths = shortest_paths_to(
                    self.graph, q.vertex, [v for _, v in raw]
                )
        neighbors = tuple(
            Neighbor(
                float(d),
                int(v),
                path=tuple(paths[int(v)][1]) if int(v) in paths else None,
            )
            for d, v in raw
        )
        degraded = fallback_from is not None
        if degraded:
            qspan.annotate(degraded=True, fallback_from=fallback_from)
        obs.record_query(
            method, elapsed, c, vertex=q.vertex, k=q.k, trace=qspan,
        )
        return KNNResult(
            query=q, method=method, neighbors=neighbors, counters=c,
            time_s=elapsed, degraded=degraded, fallback_from=fallback_from,
        )

    def batch(
        self,
        queries: Sequence[Union[int, KNNQuery]],
        k: Optional[int] = None,
        method: Optional[str] = None,
        *,
        with_paths: Optional[bool] = None,
    ) -> List[KNNResult]:
        """Answer a workload of queries, amortising index construction.

        ``queries`` mixes bare vertex ids (``k`` then required) and
        :class:`KNNQuery` objects; explicit ``k`` / ``method`` /
        ``with_paths`` override the fields of any :class:`KNNQuery`
        entries.  Returns one :class:`KNNResult` per input, in order.

        Queries sharing a method reuse one algorithm instance (and the
        road-network indexes behind it), so the per-query cost converges
        to pure search time — the quantity the paper's figures report.
        ``method="auto"`` resolves per query via the density heuristic
        (see :meth:`query`).

        Identical entries — same ``(vertex, k, method, with_paths)`` —
        are computed once and the *same* :class:`KNNResult` object is
        returned at every duplicate position; each reuse records a
        ``batch_dedup_hits`` event on :attr:`counters`.  Real workloads
        are heavily skewed, so a hot POI junction queried a hundred
        times in one batch costs one search.
        """
        normalized = as_queries(queries, k=k, method=method, with_paths=with_paths)
        computed: Dict[KNNQuery, KNNResult] = {}
        out: List[KNNResult] = []
        with _span("batch", size=len(normalized)) as bspan:
            for q in normalized:
                result = computed.get(q)
                if result is not None:
                    self.counters.add("batch_dedup_hits")
                else:
                    result = self.query(q)
                    computed[q] = result
                out.append(result)
            bspan.annotate(unique=len(computed))
        reg = obs.REGISTRY
        if reg.enabled and normalized:
            reg.histogram(
                "engine_batch_size", "queries per engine batch"
            ).observe(len(normalized))
            reg.counter(
                "engine_batch_dedup_hits_total",
                "batch entries answered by reusing an identical query",
            ).inc(len(normalized) - len(computed))
        return out

    def explain(
        self,
        query: int,
        k: int,
        methods: Optional[Sequence[str]] = None,
    ) -> Dict[str, KNNResult]:
        """Run every (or the given) method on one query.

        ``methods`` defaults to :meth:`available_methods` — the paper's
        main-comparison lineup runnable on this network (DisBrw drops
        out above the SILC vertex cap).  Returns ``{method_name:
        KNNResult}``; each result carries that method's counters and
        wall-clock time — per-method cost profiles on identical input,
        the paper's Section 7 methodology in one call.
        """
        if methods is None:
            methods = self.available_methods()
        return {
            m: self.query(query, k, method=m, counters=Counters())
            for m in methods
        }
