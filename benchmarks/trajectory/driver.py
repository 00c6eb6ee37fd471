"""Set-up, the closed-loop timed phase and its verification.

Everything here goes through the public API only: ``road_network``,
``uniform_objects``, ``IndexCache``, ``QueryEngine.query``,
``KNNServer.query`` / ``apply_updates``, ``IndexStore``.  The harness
clock (``time.perf_counter`` around each call) is the only source of
latencies — never ``KNNResult.time_s``.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import IndexCache, IndexStore, QueryEngine, road_network, uniform_objects
from repro.engine import get_method
from repro.server import KNNServer
from repro.store import expand_kinds
from repro.utils.counters import BUILD_COUNTERS

import workloads as wl
from oracle import Oracle
from workloads import K, Op, Workload

#: Every ``SAMPLE_EVERY``-th answer is kept for checking after the timed
#: phase, up to ``MAX_SAMPLES`` per run.
SAMPLE_EVERY = 20
MAX_SAMPLES = 500
#: The end-to-end numbers are taken over the quietest slices: this share
#: of the run's ops, and never fewer than ``MIN_POOL_OPS`` so that ten
#: samples lie beyond the pool's 99th percentile.
QUIET_SHARE = 0.10
MIN_POOL_OPS = 1000
#: Leading share of the slices left out of the pool: the result cache is
#: still filling and lazily built structures are touched for the first
#: time (serve-hotspot's first 30 slices run at 60-70 us/op, the rest at
#: 50).
RAMP_SHARE = 0.20
#: Share of the remaining slices, fastest first, also left out, so that
#: one odd slice cannot set the numbers.  (Before the run was pinned to
#: one CPU these were the slices in which client and worker happened to
#: share a CPU and every hand-off was a third cheaper.)
TRIM_SHARE = 0.05
#: Ops sent after the timed phase through the workload's own path, the
#: same vertices to every method of the mix, and checked by the oracle.
PROBE_OPS = 200

Answer = Tuple[Tuple[float, int], ...]
clock = time.perf_counter


def answer_of(result) -> Answer:
    return tuple((n.distance, n.vertex) for n in result.neighbors)


def peak_rss() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def builds_so_far() -> int:
    return sum(BUILD_COUNTERS.as_dict().values())


@dataclass
class Context:
    """One set-up instance of a workload: what the timed phase runs on."""

    workload: Workload
    seed: int
    graph: object
    objects: np.ndarray
    cache: IndexCache
    engine: QueryEngine
    hot: Optional[np.ndarray]
    server: Optional[KNNServer] = None
    store: Optional[IndexStore] = None
    updates: Optional[wl.UpdateStream] = None

    def ops(self, client: int, index: int) -> List[Op]:
        return wl.slice_ops(
            self.workload, self.seed, client, index,
            self.graph.num_vertices, self.hot,
        )

    def stream(self, client: int, count: int) -> List[Op]:
        return wl.op_stream(
            self.workload, self.seed, client, count,
            self.graph.num_vertices, self.hot,
        )

    def ask(self, op: Op):
        """One request through the workload's own path; returns the
        ``KNNResult`` or raises."""
        vertex, method = op
        if self.server is None:
            return self.engine.query(vertex, K, method)
        response = self.server.query(vertex, K, method)
        if not response.ok:
            raise RuntimeError(f"{response.status}: {response.error}")
        return response.result

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
            self.store = None


def required_kinds(engine: QueryEngine, methods: Sequence[str]) -> List[str]:
    """Index kinds the methods need, dependencies first."""
    needed = set()
    for method in methods:
        needed.update(get_method(engine.resolve_method(method, K)).requires)
    return expand_kinds(sorted(needed))


def set_up(
    workload: Workload,
    seed: int,
    scratch: str,
    stage: Optional[Callable[[str, float], None]] = None,
) -> Context:
    """Cold set-up, up to (not including) the first timed op.

    With ``stage`` (the traced run) each index kind is prebuilt on its
    own and ``stage(name, seconds)`` receives every stage's time; the
    untraced run lets the engine build lazily, as a user would.
    """
    t0 = clock()
    graph = road_network(workload.vertices, seed=wl.GRAPH_SEED)
    if stage is not None:
        stage("graph.generate_s", clock() - t0)
    objects = uniform_objects(
        graph, workload.density, seed=wl.object_seed(workload)
    )
    store = None
    if workload.updating:
        # An empty store: every index is built, then saved through it.
        store = IndexStore(tempfile.mkdtemp(prefix="store-", dir=scratch))
    cache = IndexCache(graph, store=store)
    engine = QueryEngine(cache, objects)
    ctx = Context(
        workload=workload, seed=seed, graph=graph, objects=objects,
        cache=cache, engine=engine, store=store,
        hot=wl.hot_set(workload, seed, graph.num_vertices),
    )
    if stage is not None:
        for kind in required_kinds(engine, workload.methods):
            t = clock()
            cache.prebuild([kind])
            stage(f"{kind}_build_s", clock() - t)
    if workload.serve:
        ctx.server = KNNServer(
            engine, workers=wl.SERVER_WORKERS, cache_capacity=wl.CACHE_CAPACITY
        )
        ctx.server.start(warmup_methods=workload.methods)
    else:
        for method in workload.methods:
            engine.algorithm(engine.resolve_method(method, K))
    if workload.updating:
        ctx.updates = wl.UpdateStream(
            workload, wl.UPDATE_SEED, graph.vertex_start, graph.edge_target,
            graph.edge_weight, objects,
        )
    warm = ctx.stream(wl.WARMUP_CLIENT, workload.warmup_ops)
    share = -(-len(warm) // workload.clients)
    run_threads([
        (lambda part=warm[c * share:(c + 1) * share]: [ctx.ask(op) for op in part])
        for c in range(workload.clients)
    ])
    return ctx


def settle(ctx: Context) -> None:
    """Bring an updating workload to its steady state: apply the
    workload's ``settle_batches`` update batches, untimed."""
    for _ in range(ctx.workload.settle_batches):
        ctx.server.apply_updates(ctx.updates.next_batch())


def run_threads(targets: Sequence[Callable[[], object]]) -> None:
    """Run the callables concurrently (one inline when alone); re-raise
    the first exception any of them raised."""
    if len(targets) == 1:
        targets[0]()
        return
    errors: List[BaseException] = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # re-raised below, in the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


@dataclass
class ClientLog:
    """What one closed-loop client saw: per slice an array of latencies,
    plus counts and a thin sample of answers — never the responses."""

    slices: List[np.ndarray] = field(default_factory=list)
    failed: int = 0
    #: ops whose ``auto`` resolved to another method than expected, or
    #: that were answered by a fallback (degraded).
    strayed: int = 0
    cache_hits: int = 0
    retries: int = 0
    samples: List[Tuple[Op, Answer]] = field(default_factory=list)


class Phase:
    """The timed phase's shared clockwork.

    All clients meet at a barrier between slices; the barrier action
    stamps wall and CPU time, releases the writer's next update batch
    (so every slice overlaps exactly one) and decides when to stop.  With
    one client the barrier is a plain function call.
    """

    def __init__(self, workload: Workload, seconds: float) -> None:
        self.seconds = seconds
        self.updating = workload.updating
        self.barrier = threading.Barrier(workload.clients, action=self._boundary)
        self.stamps: List[Tuple[float, float]] = []
        self.deadline: Optional[float] = None
        self.stop = False
        self.marks = threading.Semaphore(0)

    def _boundary(self) -> None:
        now, cpu = clock(), time.process_time()
        if self.deadline is None:
            self.deadline = now + self.seconds
        self.stamps.append((now, cpu))
        if now >= self.deadline:
            self.stop = True
        elif self.updating:
            self.marks.release()


def client_loop(ctx: Context, client: int, phase: Phase, log: ClientLog) -> None:
    """Send slices until the phase stops.

    Each slice is reduced to an array of latencies before the next
    starts: responses are never retained, which on this host was the
    difference between 2,300-4,000 and a steady 5,000+ requests/s on the
    hotspot workload.
    """
    expected = ctx.workload.auto_resolves_to
    server, engine = ctx.server, ctx.engine
    max_samples = MAX_SAMPLES // ctx.workload.clients
    sent = 0
    index = 0
    try:
        while True:
            ops = ctx.ops(client, index)
            phase.barrier.wait()
            if phase.stop:
                return
            latencies: List[float] = []
            for vertex, method in ops:
                sent += 1
                try:
                    if server is None:
                        t0 = clock()
                        result = engine.query(vertex, K, method)
                        t1 = clock()
                    else:
                        t0 = clock()
                        response = server.query(vertex, K, method)
                        t1 = clock()
                        if not response.ok:
                            log.failed += 1
                            continue
                        result = response.result
                        log.cache_hits += response.cache_hit
                        log.retries += response.retries
                except Exception:
                    log.failed += 1
                    continue
                latencies.append(t1 - t0)
                if result.degraded or (method == "auto" and result.method != expected):
                    log.strayed += 1
                if sent % SAMPLE_EVERY == 0 and len(log.samples) < max_samples:
                    log.samples.append(((vertex, method), answer_of(result)))
            log.slices.append(np.asarray(latencies, dtype=np.float64))
            index += 1
    except BaseException:
        phase.barrier.abort()
        raise


def quiet_pool(walls: Sequence[float], ops: Sequence[int]) -> List[int]:
    """Indices of the fastest slices after the ramp and the trim, as few
    as hold ``QUIET_SHARE`` of the ops and at least ``MIN_POOL_OPS``.

    Neighbours on a shared host only ever slow a slice down, in bursts
    that last seconds: whole-run means drifted by 10% between adjacent
    10 s runs of unchanged code here, while the fastest tenth of a run's
    slices repeated within 3%.  Every slice is the same blend of ops (and
    on serve-mixed overlaps exactly one update batch), so the fastest are
    the quietest, not the easiest.
    """
    need = max(MIN_POOL_OPS, QUIET_SHARE * sum(ops))
    ramp = int(RAMP_SHARE * len(walls))
    order = sorted(
        range(ramp, len(walls)), key=lambda i: walls[i] / max(1, ops[i])
    )
    pool: List[int] = []
    held = 0
    for i in order[int(TRIM_SHARE * len(order)):]:
        pool.append(i)
        held += ops[i]
        if held >= need:
            break
    return pool


def timed_phase(ctx: Context, seconds: float) -> Dict[str, object]:
    """Run the workload's closed loops for ``seconds``; return raw
    counts and the end-to-end numbers."""
    workload = ctx.workload
    settle(ctx)
    # Read here, not after the run: what building and settling need is
    # the same every time (serve-mixed 183-185 MB), while serving beside
    # a writer thread adds either 50 or 65-75 MB from one run to the next
    # (``rss_after_run_mb``; in a probe, collecting garbage at every
    # slice boundary removed the higher mode) and grows with run length.
    peak_rss_mb = peak_rss()
    phase = Phase(workload, seconds)
    logs = [ClientLog() for _ in range(workload.clients)]
    apply_s: List[float] = []
    update_failures = [0]
    done = threading.Event()

    def write_loop() -> None:
        while True:
            phase.marks.acquire()
            if done.is_set():
                return
            batch = ctx.updates.next_batch()
            t0 = clock()
            try:
                ctx.server.apply_updates(batch)
            except Exception:
                update_failures[0] += 1
            apply_s.append(clock() - t0)

    builds_before = builds_so_far()
    writer = threading.Thread(target=write_loop) if phase.updating else None
    if writer is not None:
        writer.start()
    try:
        run_threads([
            (lambda c=c: client_loop(ctx, c, phase, logs[c]))
            for c in range(workload.clients)
        ])
    finally:
        if writer is not None:
            done.set()
            phase.marks.release()
            writer.join()
    rss_after_run_mb = peak_rss()

    stamps = phase.stamps
    walls = [b[0] - a[0] for a, b in zip(stamps, stamps[1:])]
    cpus = [b[1] - a[1] for a, b in zip(stamps, stamps[1:])]
    latencies = [
        np.concatenate([log.slices[i] for log in logs]) for i in range(len(walls))
    ]
    counts = [len(lat) for lat in latencies]
    pool = quiet_pool(walls, counts)
    pooled = np.concatenate([latencies[i] for i in pool])
    pool_wall = sum(walls[i] for i in pool)
    ok = sum(counts)
    client_failures = sum(log.failed for log in logs)
    return {
        "ok": ok,
        "failed": client_failures + update_failures[0],
        "attempted": ok + client_failures + len(apply_s),
        "strayed": sum(log.strayed for log in logs),
        "serve_time_builds": builds_so_far() - builds_before,
        "cache_hits": sum(log.cache_hits for log in logs),
        "retries": sum(log.retries for log in logs),
        "slices": len(walls),
        "pool_slices": len(pool),
        "pool_ops": len(pooled),
        "wall_s": stamps[-1][0] - stamps[0][0],
        "whole_run_qps": ok / (stamps[-1][0] - stamps[0][0]),
        "slice_us_per_op": [
            round(w / max(1, n) * 1e6, 2) for w, n in zip(walls, counts)
        ],
        "slice_cpu_us_per_op": [
            round(c / max(1, n) * 1e6, 2) for c, n in zip(cpus, counts)
        ],
        "slice_p50_us": [
            round(float(np.percentile(lat, 50.0)) * 1e6, 2) for lat in latencies
        ],
        "slice_p99_us": [
            round(float(np.percentile(lat, 99.0)) * 1e6, 2) for lat in latencies
        ],
        "rss_after_run_mb": rss_after_run_mb,
        "updates": len(apply_s),
        "update_apply_ms_p50": (
            statistics.median(apply_s) * 1e3 if apply_s else None
        ),
        "samples": [s for log in logs for s in log.samples],
        "metrics": {
            "throughput_qps": len(pooled) / pool_wall,
            "latency_p50_us": float(np.percentile(pooled, 50.0)) * 1e6,
            "latency_p99_us": float(np.percentile(pooled, 99.0)) * 1e6,
            "cpu_us_per_op": sum(cpus[i] for i in pool) / len(pooled) * 1e6,
            "peak_rss_mb": peak_rss_mb,
        },
    }


def verify(ctx: Context, samples: Sequence[Tuple[Op, Answer]]) -> List[str]:
    """Check answers outside the timed phase; one message per wrong one.

    * Read-only workloads: the sampled timed-phase answers, against the
      oracle on the (unchanged) graph; on a server also against the
      direct engine answer, which must be identical.
    * Every workload: ``PROBE_OPS`` fresh requests through the
      workload's own path — the same vertices to every method of the mix
      — against the oracle on the *final* graph and object set, which
      for an updating workload is the benchmark's own shadow state.
    """
    problems: List[str] = []
    graph, workload = ctx.graph, ctx.workload
    if ctx.updates is None:
        oracle = Oracle(
            graph.vertex_start, graph.edge_target, graph.edge_weight, ctx.objects
        )
        problems += oracle.mismatches(
            [op[0] for op, _ in samples], [a for _, a in samples], K
        )
        if ctx.server is not None:
            for (vertex, method), answer in samples:
                if answer_of(ctx.engine.query(vertex, K, method)) != answer:
                    problems.append(
                        f"query {vertex}: server answer differs from the engine's"
                    )
    else:
        u = ctx.updates
        oracle = Oracle(u.vertex_start, u.edge_target, u.edge_weight, u.present)
    methods = workload.methods
    shared = ctx.stream(wl.PROBE_CLIENT, PROBE_OPS // len(methods))
    probes = [(vertex, method) for vertex, _ in shared for method in methods]
    answers = []
    for op in probes:
        try:
            answers.append(answer_of(ctx.ask(op)))
        except Exception as exc:
            answers.append(())
            problems.append(f"probe {op}: {type(exc).__name__}: {exc}")
    for message in oracle.mismatches([v for v, _ in probes], answers, K):
        problems.append(f"probe {message}")
    return problems
