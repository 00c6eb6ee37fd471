"""`KNNServer` — a concurrent kNN query service over one road network.

The serving architecture follows the paper's own split between expensive
preprocessing and microsecond queries, hardened for sustained concurrent
load.  A request moves through five stages, the first two on the
caller's thread (``docs/serving.md`` draws the pipeline):

* **cache** — ``submit`` resolves the method, builds the result-cache
  key and probes the shared LRU (:mod:`repro.server.cache`); a hit is
  answered in place and never queues, wakes a worker or waits for one;
* **admit** — a miss joins the computation already in flight for its
  key or opens a :class:`~repro.server.request.Flight` on the bounded
  queue; a full queue answers ``rejected`` instead of growing a backlog;
* **batch** — N workers over one warm :class:`IndexCache` (load it from
  a :class:`repro.store.IndexStore` and serve time performs *zero* index
  builds) each drain up to ``max_batch`` flights;
* **execute** — one ``QueryEngine.query`` per flight under the read side
  of the update lock, retried on transient errors and steered around
  open circuit breakers; a flight whose every waiter's deadline passed
  is answered ``deadline_exceeded`` without computing;
* **respond** — the answer fans out to every waiter of the flight.

``repro.server``'s package docstring has the quickstart.
"""

from __future__ import annotations

import collections
import contextlib
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.engine import QueryEngine
from repro.obs.tracing import span as _span
from repro.server.cache import ResultCache, objects_fingerprint, result_key
from repro.server.request import (
    DEADLINE_EXCEEDED,
    ERROR,
    OK,
    REJECTED,
    STATUSES,
    Flight,
    PendingRequest,
    ServerRequest,
    ServerResponse,
)
from repro.resilience import (
    CircuitBreaker,
    Heartbeats,
    RetryPolicy,
    Supervisor,
    WorkerKilled,
    classify,
    current_plan,
    fault_check,
    quarantine_counts,
)

#: What one category serves, swapped as a unit: (engine, objects
#: fingerprint, graph fingerprint).
_State = Tuple[QueryEngine, str, str]
#: ``ResultCache.stats()`` keys that only grow; windows subtract them.
_CACHE_TOTALS = ("hits", "misses", "evictions", "invalidations")


class ServerClosed(RuntimeError):
    """Submit after :meth:`KNNServer.stop` (or before :meth:`start`)."""


class UnknownCategory(KeyError):
    """A request named a POI category the server does not hold."""

    def __init__(self, category: str, known: Sequence[Optional[str]]) -> None:
        names = ", ".join(sorted(str(c) for c in known))
        super().__init__(
            f"unknown category {category!r}; server holds: {names}"
        )
        self.category = category


class _RWLock:
    """Writer-priority readers-writer lock for live updates.

    Query workers hold read locks (many at once); ``apply_updates``
    holds the write lock, so no query ever observes a half-repaired
    index or a graph whose weights changed mid-search.  Writer priority
    — new readers queue behind a waiting writer — bounds update latency
    under sustained query load.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class KNNServer:
    """Serve kNN queries concurrently from a pool of worker threads.

    Parameters
    ----------
    engine:
        The :class:`QueryEngine` for the default object set.  Its
        :class:`IndexCache` is shared by every category engine, so road
        network indexes exist exactly once in the process.
    workers:
        Worker thread count.
    max_queue:
        Bound on queued (admitted, unserved) computations — the
        admission control knob.  Result-cache misses beyond it are
        answered ``rejected``; hits and duplicates of a computation
        already in flight never queue, so it does not bound them.
    max_batch:
        Most computations one worker drains per dispatch round.
    cache_capacity:
        Result-cache entries (0 disables result caching).
    categories:
        Optional ``{name: object_vertex_ids}`` POI categories; each is
        served by ``engine.with_objects(ids)`` over the shared index
        cache.  Requests select one via ``category=``; ``None`` is the
        default engine.
    default_deadline_s:
        Deadline applied to requests that do not carry their own.
    retry_policy:
        Server-side retry budget for *transient* errors (see
        :mod:`repro.resilience.errors`); a :class:`RetryPolicy` with
        capped jittered exponential backoff.  The default allows two
        retries; ``RetryPolicy(max_attempts=1)`` disables retrying.
    breaker_threshold / breaker_cooldown_s:
        Per-method circuit breaker tuning: consecutive primary-method
        failures that trip a breaker open, and how long it stays open
        before letting a half-open probe through.
    supervise:
        Run the worker supervisor (default True): a daemon thread that
        heartbeat-checks the pool every ``heartbeat_interval_s`` and
        replaces workers that died or have not beaten for
        ``wedge_timeout_s`` (wedged threads are abandoned — told to
        exit at their next checkpoint — and replaced immediately).
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        workers: int = 4,
        max_queue: int = 1024,
        max_batch: int = 32,
        cache_capacity: int = 4096,
        categories: Optional[Dict[str, Sequence[int]]] = None,
        default_deadline_s: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 1.0,
        supervise: bool = True,
        heartbeat_interval_s: float = 0.25,
        wedge_timeout_s: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.workers = workers
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.default_deadline_s = default_deadline_s
        self.cache = ResultCache(cache_capacity)
        # category -> what it serves.  Every change (object swap, object
        # delta, weight update) installs a *new* tuple: one dict read is
        # a consistent snapshot without a lock, and ``is`` tells a worker
        # whether anything moved while a miss was queued.
        graph_fp = engine.graph.fingerprint()
        self._states: Dict[Optional[str], _State] = {
            None: (engine, objects_fingerprint(engine.objects), graph_fp)
        }
        for name, objects in (categories or {}).items():
            self._states[name] = (
                engine.with_objects(objects),
                objects_fingerprint(objects),
                graph_fp,
            )
        # One mutex guards the queue, the in-flight map, the stats and
        # writes to the category map; workers block on the condition,
        # never spin.  The RW lock fences queries (readers) against live
        # updates (the writer).
        self._update_lock = _RWLock()
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._queue: collections.deque = collections.deque()
        self._inflight: Dict[tuple, Flight] = {}
        self._threads: List[threading.Thread] = []
        self._running = False
        self._series = obs.ServerSeries(STATUSES)
        self._stats = collections.Counter()
        self._batch_sizes: collections.Counter = collections.Counter()
        # Flush markers: value of each lifetime statistic when
        # :meth:`flush_stats` last ran.  ``stats()`` subtracts them to
        # report the since-last-flush window next to the lifetime totals.
        self._flush_stats = collections.Counter()
        self._flush_batch_sizes: collections.Counter = collections.Counter()
        self._flush_cache: Dict[str, int] = {}
        # Resilience: retries, per-method circuit breakers, worker
        # supervision (heartbeats + replacement of dead/wedged threads).
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.supervise = supervise
        self.heartbeat_interval_s = heartbeat_interval_s
        self.wedge_timeout_s = wedge_timeout_s
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._heartbeats = Heartbeats()
        self._abandoned: set = set()
        self._worker_seq = 0
        self._supervisor: Optional[Supervisor] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, warmup_methods: Optional[Sequence[str]] = None) -> "KNNServer":
        """Spin up the worker pool (idempotent).

        ``warmup_methods`` resolves and instantiates those methods for
        every category *before* accepting traffic, so the first request
        never pays algorithm construction.  With a store-backed engine
        the indexes load from disk; either way nothing is built twice —
        the index cache build paths are locked per key.
        """
        with self._lock:
            if self._running:
                return self
            self._running = True
        for name in warmup_methods or ():
            for engine, _, _ in list(self._states.values()):
                resolved = engine.resolve_method(name)
                if engine.objects:
                    engine.algorithm(resolved)
        for _ in range(self.workers):
            self._spawn_worker()
        if self.supervise:
            self._supervisor = Supervisor(
                self._check_workers, interval_s=self.heartbeat_interval_s
            ).start()
        return self

    def _spawn_worker(self) -> None:
        with self._lock:
            self._worker_seq += 1
            t = threading.Thread(
                target=self._worker_loop,
                name=f"knn-worker-{self._worker_seq}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the pool; with ``drain`` (default) serve the backlog first."""
        # Supervisor first — it must not resurrect workers that are
        # exiting because the server is stopping.
        if self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None
        dropped: List[Flight] = []
        with self._lock:
            if not self._running:
                return
            if not drain:
                dropped.extend(self._queue)
                self._queue.clear()
            self._running = False
            self._work_ready.notify_all()
        for flight in dropped:
            self._respond(flight, REJECTED, error="server stopping")
        for t in self._threads:
            t.join(timeout)
        self._threads.clear()
        self._heartbeats.clear()
        with self._lock:
            self._abandoned.clear()

    def __enter__(self) -> "KNNServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------
    # Client surface: the cache and admit stages run on the caller
    # ------------------------------------------------------------------
    def submit(
        self,
        vertex: int,
        k: int,
        method: str = "auto",
        *,
        category: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> PendingRequest:
        """Answer from the result cache, or enqueue; returns a future.

        The cache is probed here, on the caller's thread: a hit comes
        back as an already-completed future and never touches the queue
        or a worker — also when the queue is full or every worker is
        stalled, so ``max_queue`` bounds *misses*.  A miss joins the
        computation in flight for its key if there is one; otherwise
        admission control applies and a full queue completes the future
        at once with status ``rejected``.  A method name the registry
        does not know completes it with status ``error``.  A server that
        is not running raises :class:`ServerClosed` and a category it
        does not hold :class:`UnknownCategory` — client programming
        errors, not load conditions.

        The probe takes no lock against live updates and still never
        returns a pre-update answer once ``apply_updates`` or
        ``with_objects`` returned: the key carries both fingerprints,
        read here as one published tuple that the writer replaces before
        it returns; entries are only ``put`` under the read lock by a
        worker that checked the tuple was still current; and leaving a
        fingerprint evicts its entries (all entries on a weight change),
        so one that comes back later — weights restored, an object
        re-added — finds nothing left over.
        """
        state = self._states.get(category)
        if state is None:
            raise UnknownCategory(category, list(self._states))
        if not self._running:
            raise ServerClosed("server is not running; call start()")
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        request = ServerRequest(
            int(vertex), int(k), method, category, deadline_s, time.monotonic()
        )
        reg = obs.REGISTRY
        with _span("cache", vertex=request.vertex, k=request.k) as probe:
            try:
                key, resolved = self._key(state, request)
            except Exception as exc:  # a bad client-supplied method name
                return self._answer_now(request, ERROR, self._error(exc)[0])
            result = self.cache.get(key)
            probe.annotate(hit=result is not None)
        if result is not None:
            if reg.enabled:
                self._series.cache_hit.inc()
            # Cached answers are never degraded (see _attempt).
            return self._answer_now(request, OK, result=result)
        if reg.enabled:
            self._series.cache_miss.inc()
        pending = PendingRequest(request)
        with _span("admit"), self._lock:
            if not self._running:
                raise ServerClosed("server is not running; call start()")
            flight = self._inflight.get(key)
            # Join only a computation admitted under this very snapshot:
            # one admitted under an older tuple may already hold an
            # answer from before an update that has since returned.
            if flight is not None and flight.state is state:
                flight.waiters.append(pending)
                return pending
            if len(self._queue) < self.max_queue:
                flight = Flight(key, state, resolved, pending)
                self._inflight[key] = flight
                self._queue.append(flight)
                self._work_ready.notify()
                return pending
        return self._answer_now(request, REJECTED, f"queue full ({self.max_queue})")

    def query(
        self,
        vertex: int,
        k: int,
        method: str = "auto",
        *,
        category: Optional[str] = None,
        deadline_s: Optional[float] = None,
        timeout: Optional[float] = 30.0,
    ) -> ServerResponse:
        """Synchronous convenience: submit and wait for the response."""
        return self.submit(
            vertex, k, method, category=category, deadline_s=deadline_s
        ).result(timeout)

    @staticmethod
    def _key(state: _State, request: ServerRequest) -> Tuple[tuple, str]:
        """``(result-cache key, resolved method)`` of ``request`` on
        ``state``.  Keyed on the planner's resolution, so "auto" and the
        explicit method it resolves to share entries."""
        engine, objects_fp, graph_fp = state
        resolved = engine.resolve_method(request.method, request.k)
        return (
            result_key(graph_fp, objects_fp, request.vertex, request.k, resolved),
            resolved,
        )

    def with_objects(
        self, objects: Sequence[int], category: Optional[str] = None
    ) -> None:
        """Swap the object set served under ``category`` (live).

        Installs a fresh engine over the shared index cache (only the
        small object indexes rebuild) and invalidates every result-cache
        entry recorded under the outgoing object fingerprint, so no
        request can ever observe the old POI set again.  New categories
        may be installed the same way.
        """
        new_engine = self._states[None][0].with_objects(objects)
        new_fp = objects_fingerprint(objects)
        with self._lock:
            old = self._states.get(category)
            # The graph fingerprint is read inside the lock a weight
            # update republishes every category under.
            self._states[category] = (new_engine, new_fp, self._states[None][2])
        if old is not None and old[1] != new_fp:
            self.cache.invalidate(old[1])

    def apply_updates(
        self, deltas: Sequence, category: Optional[str] = None
    ):
        """Apply live deltas under the write lock; returns the report.

        Takes the writer side of the update lock, so every in-flight
        query drains first and none starts until the indexes and cache
        are consistent again.

        * **Weight deltas** (shared road network) go through the default
          engine's :meth:`~repro.engine.engine.QueryEngine.apply_updates`
          — one graph mutation plus in-place index repair.  Every other
          category engine then drops its algorithm instances (they
          snapshot weights), every category is republished under the
          new graph fingerprint and the *whole* result cache is
          invalidated: every prior answer was computed on the old
          weights.
        * **Object deltas** target exactly one ``category``'s engine;
          only cache entries under that category's outgoing object
          fingerprint are invalidated — other categories' entries stay
          hot, the same targeted rule :meth:`with_objects` uses.
        """
        from repro.updates import UpdateReport, split_deltas

        obj_deltas, weight_deltas = split_deltas(deltas)
        report = UpdateReport()
        start = time.monotonic()
        with self._update_lock.write():
            hold_start = time.perf_counter()
            if weight_deltas:
                default = self._states[None][0]
                sub = default.apply_updates(weight_deltas)
                report.weight_changes.extend(sub.weight_changes)
                for name, counters in sub.repaired.items():
                    report.merge_repair(name, counters)
                report.dropped.extend(sub.dropped)
                if sub.weights_changed:
                    graph_fp = default.graph.fingerprint()
                    with self._lock:
                        for name, (engine, fp, _) in self._states.items():
                            self._states[name] = (engine, fp, graph_fp)
                        others = [
                            s[0] for s in self._states.values()
                            if s[0] is not default
                        ]
                    for engine in others:
                        engine.invalidate_algorithms()
                    self.cache.invalidate()
            if obj_deltas:
                engine = self.engine_for(category)
                sub = engine.apply_updates(obj_deltas)
                report.objects_added += sub.objects_added
                report.objects_removed += sub.objects_removed
                report.dropped.extend(sub.dropped)
                new_fp = objects_fingerprint(engine.objects)
                with self._lock:
                    current, old_fp, graph_fp = self._states[category]
                    if current is engine:  # not swapped out meanwhile
                        self._states[category] = (engine, new_fp, graph_fp)
                if old_fp != new_fp:
                    self.cache.invalidate(old_fp)
        if obs.REGISTRY.enabled:
            self._series.write_hold.observe(time.perf_counter() - hold_start)
        report.elapsed_s = time.monotonic() - start
        return report

    def categories(self) -> List[Optional[str]]:
        return list(self._states)

    def engine_for(self, category: Optional[str] = None) -> QueryEngine:
        try:
            return self._states[category][0]
        except KeyError:
            raise UnknownCategory(category, list(self._states)) from None

    # ------------------------------------------------------------------
    # Worker side: supervision wraps batch -> execute -> respond
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        name = threading.current_thread().name
        while True:
            with self._lock:
                if name in self._abandoned:
                    # The supervisor declared this thread wedged and
                    # already spawned a replacement; exit quietly.
                    self._abandoned.discard(name)
                    return
            self._heartbeats.beat(name)
            try:
                # Chaos hooks: a stall makes this worker miss heartbeats
                # (the supervisor's wedge detection fires); a kill makes
                # the thread exit mid-service (death detection fires).
                fault_check("worker.stall")
                fault_check("worker.die")
            except WorkerKilled:
                self._series.event("worker_death")
                return
            batch = self._next_batch(name)
            if batch is None:
                return
            if batch:
                self._serve_batch(batch)

    def _next_batch(self, name: str) -> Optional[List[Flight]]:
        """Batch stage: block for work, drain up to ``max_batch`` flights."""
        with self._work_ready:
            while self._running and not self._queue:
                if name in self._abandoned:
                    return []  # loop re-checks and exits
                self._heartbeats.beat(name)
                self._work_ready.wait(timeout=0.1)
            if not self._queue:
                if not self._running:
                    return None  # drained and stopping
                return []  # spurious wakeup under load; loop again
            batch = []
            while self._queue and len(batch) < self.max_batch:
                batch.append(self._queue.popleft())
            return batch

    def _serve_batch(self, batch: List[Flight]) -> None:
        """Run each drained flight through execute and respond."""
        reg = obs.REGISTRY
        series = self._series
        with _span("batch", size=len(batch)):
            if reg.enabled:
                series.batch_size.observe(len(batch))
            for flight in batch:
                started = time.monotonic()
                if reg.enabled:
                    for pending in flight.waiters:
                        series.queue_wait.observe(
                            started - pending.request.submitted_at
                        )
                if self._expired_in_queue(flight, started):
                    self._respond(flight, DEADLINE_EXCEEDED)
                else:
                    self._respond(flight, *self._execute(flight))

    def _expired_in_queue(self, flight: Flight, now: float) -> bool:
        """True — and the flight closed — when every waiter's deadline
        passed before a worker got to it: stale answers are not worth a
        worker's time."""
        if not all(p.request.expired(now) for p in flight.waiters):
            return False
        with self._lock:
            # Joining needs this lock, so no live duplicate can slip in
            # between the decision and the close.
            if not all(p.request.expired(now) for p in flight.waiters):
                return False
            self._close(flight)
        return True

    def _close(self, flight: Flight) -> None:
        """Take ``flight`` out of the in-flight map (caller holds
        ``_lock``); its waiter list is final from here on."""
        if self._inflight.get(flight.key) is flight:
            del self._inflight[flight.key]

    def _execute(self, flight: Flight) -> tuple:
        """Execute stage: attempt, and retry transient errors with
        capped jittered backoff — but never past the earliest waiter
        deadline; backing off into certain expiry helps nobody.
        Returns ``_respond``'s ``(status, result, error, retries)``."""
        request = flight.request
        deadlines = [
            p.request.submitted_at + p.request.deadline_s
            for p in flight.waiters
            if p.request.deadline_s is not None
        ]
        deadline = (
            min(deadlines) if len(deadlines) == len(flight.waiters) else None
        )
        policy = self.retry_policy
        retries = 0
        with _span("execute", vertex=request.vertex, k=request.k) as span:
            while True:
                result, error, error_class = self._attempt(flight)
                if error is None or not error_class.transient:
                    break
                if retries + 1 >= policy.max_attempts:
                    break
                backoff = policy.backoff_s(retries + 1)
                if deadline is not None and time.monotonic() + backoff >= deadline:
                    break
                self._series.event("retry", error_class.name)
                retries += 1
                # Sleep outside every lock; the next attempt re-acquires
                # the read lock so a concurrent update is never blocked
                # by a backing-off worker.
                time.sleep(backoff)
            span.annotate(retries=retries)
        return (OK if error is None else ERROR), result, error, retries

    def _attempt(self, flight: Flight):
        """One attempt at a flight's answer: ``(result, error, class)``,
        ``error`` None on success, otherwise the formatted message with
        its :class:`~repro.resilience.errors.ErrorClass` (which the
        caller consults for retryability)."""
        request = flight.request
        state, resolved, key = flight.state, flight.resolved, flight.key
        result = error = error_class = None
        # The read side of the update lock: the query sees a frozen
        # (graph weights, indexes, object sets, cache) world; a
        # concurrent apply_updates waits for it to drain.
        with self._update_lock.read():
            read_start = time.perf_counter()
            try:
                current = self._states[request.category]
                if current is not state:
                    # An update or a swap landed while this miss was
                    # queued: what submit resolved describes a world
                    # that is gone, and an answer computed now must not
                    # be cached under its key.
                    state = current
                    key, resolved = self._key(state, request)
                result = self._guarded_query(state[0], request, resolved)
                if not result.degraded:
                    # A degraded answer is exact but carries fallback
                    # provenance; caching it would keep reporting
                    # "degraded" long after the primary recovered.
                    self.cache.put(key, result)
            except Exception as exc:  # answer the waiters, not the worker
                error, error_class = self._error(exc)
        if obs.REGISTRY.enabled:
            self._series.read_hold.observe(time.perf_counter() - read_start)
        return result, error, error_class

    def _guarded_query(
        self, engine: QueryEngine, request: ServerRequest, resolved: str
    ):
        """``engine.query`` behind ``resolved``'s circuit breaker.

        An open breaker steers the query around the method via
        ``avoid_methods`` instead of letting it fail again; a fallback
        success still counts as a *primary* failure so the breaker keeps
        tracking the broken method.
        """
        breaker = self._breakers.get(resolved)
        if breaker is None:
            with self._lock:
                breaker = self._breakers.setdefault(resolved, CircuitBreaker(
                    failure_threshold=self.breaker_threshold,
                    cooldown_s=self.breaker_cooldown_s,
                ))
        allowed = breaker.allow()
        if not allowed:
            self._series.event("short_circuit", resolved)
        try:
            result = engine.query(
                request.vertex,
                request.k,
                method=request.method,
                avoid_methods=(
                    frozenset() if allowed else frozenset((resolved,))
                ),
            )
        except Exception as exc:
            if allowed:
                # Only a fault a fallback could route around counts
                # against the method; a client error (a bad vertex, a
                # negative k) says nothing about its health.
                if classify(exc).degradable:
                    breaker.record_failure()
                else:
                    breaker.release()
            raise
        if allowed:
            if result.fallback_from == resolved:
                breaker.record_failure()
            else:
                breaker.record_success()
        return result

    def _error(self, exc: Exception):
        """``(message, ErrorClass)`` of a serve error, counted."""
        error_class = classify(exc)
        self._series.event("error", error_class.name)
        return f"{type(exc).__name__}: {exc}", error_class

    def _respond(
        self, flight: Flight, status: str, result=None, error=None, retries=0
    ) -> None:
        """Respond stage: close the flight, answer every waiter.

        Deadlines are re-checked *after* execution: a request whose
        deadline passed while its query ran gets ``deadline_exceeded``,
        not a late success the client has already given up on.
        """
        with _span("respond", waiters=len(flight.waiters)):
            with self._lock:
                self._close(flight)
            now = time.monotonic()
            responses = []
            for pending in flight.waiters:
                request = pending.request
                answer, message = status, error
                if status == OK and request.expired(now):
                    answer = DEADLINE_EXCEEDED
                    message = (
                        f"expired after {request.deadline_s}s "
                        "(completed too late)"
                    )
                elif status == DEADLINE_EXCEEDED:
                    message = f"expired after {request.deadline_s}s in queue"
                if answer == DEADLINE_EXCEEDED:
                    self._series.event(
                        "deadline_missed",
                        "queued" if status == DEADLINE_EXCEEDED else "executing",
                    )
                ok = answer == OK
                responses.append(ServerResponse(
                    request,
                    answer,
                    result if ok else None,
                    message,
                    now - request.submitted_at,
                    coalesced=ok and pending is not flight.waiters[0],
                    degraded=ok and result.degraded,
                    fallback_from=result.fallback_from if ok else None,
                    retries=retries,
                ))
            self._record(responses, retries)
            for pending, response in zip(flight.waiters, responses):
                pending.complete(response)

    def _answer_now(
        self, request: ServerRequest, status: str, error=None, result=None
    ) -> PendingRequest:
        """A request answered on the caller's thread — a cache hit, a
        rejection, a bad method name: a future that is born complete."""
        latency = time.monotonic() - request.submitted_at
        response = ServerResponse(
            request, status, result, error, latency, cache_hit=result is not None
        )
        self._record((response,))
        return PendingRequest(request, response)

    def _record(self, responses: Sequence[ServerResponse], retries: int = 0) -> None:
        """Account for one answered group (a caller-thread answer is a
        group of one) under a single ``_lock`` acquisition."""
        with self._lock:
            stats = self._stats
            self._batch_sizes[len(responses)] += 1
            if retries:
                stats["retries"] += retries
            for response in responses:
                stats[response.status] += 1
                if response.cache_hit:
                    stats["cache_hits"] += 1
                if response.coalesced:
                    stats["coalesced_hits"] += 1
                if response.degraded:
                    stats["degraded"] += 1
        if obs.REGISTRY.enabled:
            series = self._series
            for response in responses:
                total, seconds = series.responded[response.status]
                total.inc()
                if response.cache_hit:
                    seconds = series.hit_seconds
                seconds.observe(response.latency_s)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _check_workers(self) -> None:
        """Supervisor hook: replace dead workers, abandon wedged ones.

        A wedged thread — alive but silent for longer than
        ``wedge_timeout_s`` — cannot be killed from outside in Python,
        so it is *abandoned*: marked to exit at its next checkpoint and
        replaced at once, without waiting for the stall to clear.
        """
        if not self._running:
            return
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            if not t.is_alive():
                reason = "died"
            else:
                age = self._heartbeats.age_s(t.name)
                if age is None or age <= self.wedge_timeout_s:
                    continue
                reason = "wedged"
            with self._lock:
                if t in self._threads:
                    self._threads.remove(t)
                if reason == "wedged":
                    self._abandoned.add(t.name)
                self._stats["worker_restarts"] += 1
                self._stats[f"worker_restarts_{reason}"] += 1
            self._heartbeats.drop(t.name)
            self._series.event("worker_restart", reason)
            self._spawn_worker()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def _section(counts, sizes, cache) -> Dict[str, object]:
        """The ``counts``/``batch``/``cache`` triple of a stats report."""
        dispatches = sum(sizes.values())
        requests = sum(n * c for n, c in sizes.items())
        return {
            "counts": dict(counts),
            "batch": {
                "dispatches": dispatches,
                "mean_group_size": round(requests / dispatches, 3)
                if dispatches
                else 0.0,
                "coalesced_hits": counts.get("coalesced_hits", 0),
            },
            "cache": cache,
        }

    def stats(self) -> Dict[str, object]:
        """A point-in-time stats snapshot (counts, batching, cache).

        Top-level keys are **lifetime** totals since :meth:`start` —
        the shape every existing consumer reads.  The ``since_flush``
        section repeats ``counts``/``batch``/``cache`` as the window
        since the last :meth:`flush_stats` call (the whole lifetime if
        it never ran), so an operator tailing a long-lived server can
        see current behaviour instead of history-dominated averages.
        ``batch["dispatches"]`` counts answered groups: a computation
        with everyone who waited on it, or one request answered on its
        caller's thread.
        """
        cache = self.cache.stats()
        with self._lock:
            queued = len(self._queue)
            counts = collections.Counter(self._stats)
            sizes = collections.Counter(self._batch_sizes)
            # flush_stats replaces the markers, never edits them
            flushed_counts, flushed_sizes, flushed_cache = (
                self._flush_stats, self._flush_batch_sizes, self._flush_cache
            )
        window_cache = dict(cache)
        for key in _CACHE_TOTALS:
            window_cache[key] -= flushed_cache.get(key, 0)
        wh, wm = window_cache["hits"], window_cache["misses"]
        window_cache["hit_rate"] = round(wh / (wh + wm), 4) if wh + wm else 0.0
        return {
            "queued": queued,
            "workers": self.workers,
            "max_queue": self.max_queue,
            "max_batch": self.max_batch,
            **self._section(counts, sizes, cache),
            "since_flush": self._section(
                counts - flushed_counts, sizes - flushed_sizes, window_cache
            ),
        }

    def flush_stats(self) -> Dict[str, object]:
        """Close the current stats window and start a new one.

        Returns the :meth:`stats` snapshot taken at the flush point (its
        ``since_flush`` section is the window that just closed); the
        lifetime totals are never reset.
        """
        snapshot = self.stats()
        with self._lock:
            self._flush_stats = collections.Counter(self._stats)
            self._flush_batch_sizes = collections.Counter(self._batch_sizes)
            cache_stats = self.cache.stats()
            self._flush_cache = {k: cache_stats[k] for k in _CACHE_TOTALS}
        return snapshot

    def health(self) -> Dict[str, object]:
        """A liveness/resilience snapshot for operators.

        Reports worker liveness (configured vs alive, supervisor
        restarts by reason, per-worker heartbeat ages), every circuit
        breaker's state machine snapshot, quarantine counts for the
        serving store and the installed fault plan (None in production).
        ``status`` is ``"ok"``, ``"degraded"`` (open/half-open breaker
        or missing workers) or ``"stopped"``.
        """
        with self._lock:
            running = self._running
            queued = len(self._queue)
            threads = list(self._threads)
            breakers = {
                method: breaker.snapshot()
                for method, breaker in self._breakers.items()
            }
            restarts = {
                reason: self._stats[f"worker_restarts_{reason}"]
                for reason in ("died", "wedged")
                if self._stats[f"worker_restarts_{reason}"]
            }
            restarts_total = self._stats["worker_restarts"]
        alive = sum(1 for t in threads if t.is_alive())
        store = getattr(self._states[None][0].workbench, "store", None)
        plan = current_plan()
        degraded = (
            any(s["state"] != "closed" for s in breakers.values())
            or (running and alive < self.workers)
        )
        status = "stopped" if not running else (
            "degraded" if degraded else "ok"
        )
        return {
            "status": status,
            "running": running,
            "queued": queued,
            "workers": {
                "configured": self.workers,
                "alive": alive,
                "restarts_total": restarts_total,
                "restarts": restarts,
                "heartbeat_age_s": {
                    name: round(age, 3)
                    for name, age in self._heartbeats.snapshot().items()
                },
            },
            "breakers": breakers,
            "quarantine": (
                quarantine_counts(store.root) if store is not None else {}
            ),
            "fault_plan": plan.snapshot() if plan is not None else None,
        }

    def metrics_text(self) -> str:
        """The process-wide metrics registry in Prometheus text format."""
        return obs.REGISTRY.to_prometheus()
