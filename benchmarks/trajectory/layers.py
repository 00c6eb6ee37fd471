"""The traced run: per-layer metrics for one workload.

Every metric is measured on every workload, so two traced runs are
always comparable row by row:

* **workload trace** — a sample of the workload's own ops replayed once
  untraced and once with spans around each layer's public entry point
  (single closed-loop client); counts such as settled vertices or IER
  verifications come from this replay, so they are 0 where the workload
  bypasses a layer — the predicted bypasses are read straight off them;
* **server passes** — the same sample through a ``KNNServer`` on a cold
  and then a hot result cache (the workload's own server on serve-*, a
  default one on engine-*), which gives the miss path and the hit path
  enough samples whatever the workload's own hit rate is;
* **layer probes** — each layer's public functions called directly with
  the workload's graph, objects and sampled vertices;
* **comparison-network probes** — the layers only the paper's method
  comparison uses (CH, hub labels, TNR, SILC and the four methods over
  them) cannot be built at V=10,000 in a benchmark run, so they are
  always probed on the ``engine-methods`` network (which on that
  workload is the workload's own);
* **update, store and obs probes** last, because updates mutate the
  graph.
"""

from __future__ import annotations

import collections
import shutil
import statistics
import tempfile
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import GTreeOracle, IndexCache, IndexStore, obs
from repro.server import KNNServer
from repro.spatial.rtree import RTree
from repro.utils.counters import Counters

import driver
import estimators
import workloads as wl
from driver import Context, builds_so_far, clock
from tracing import Recorder, Span, self_time_by_name, self_times
from workloads import K, Op, Workload

#: Traced ops per second of ``--seconds`` (2,000 at the default 10 s).
TRACE_OPS_PER_SECOND = 200
#: Methods timed directly on the workload's own graph, and the set the
#: planner's choice is compared against.
GRAPH_METHODS = ("ine", "gtree", "road", "ier-gt")
#: Methods (and oracles) timed on the comparison network.
COMPARISON_METHODS = ("ier-phl", "ier-ch", "ier-tnr", "disbrw")
COMPARISON_ORACLES = ("ch", "hub_labels", "tnr")
COMPARISON = wl.BY_NAME["engine-methods"]
UPDATE_PROBE_BATCHES = 3
UPDATE_PROBE_DELTAS = 4
OBS_PAIRS = 20
OBS_PAIR_OPS = 50


def us(seconds: float) -> float:
    return seconds * 1e6


def median_us(durations: Sequence[float]) -> float:
    return us(statistics.median(durations)) if durations else 0.0


def ensure_algorithms(
    ctx: Context, rec: Optional[Recorder], methods: Sequence[str]
) -> None:
    """Instantiate (and, traced, wrap) the algorithm of each method.
    Needed again after a weight update, which drops the engine's
    instances."""
    for method in methods:
        resolved = ctx.engine.resolve_method(method, K)
        algorithm = ctx.engine.algorithm(resolved)
        if rec is not None:
            rec.wrap_algorithm(resolved, algorithm)


def instrument(ctx: Context, rec: Recorder) -> None:
    rec.wrap(ctx.engine, "query", "engine.query")
    rec.wrap(ctx.engine, "apply_updates", "engine.apply_updates")
    ensure_algorithms(ctx, rec, ctx.workload.methods)
    if ctx.server is not None:
        rec.wrap_cache(ctx.server.cache)
        rec.wrap(ctx.server, "apply_updates", "server.apply_updates")


class Served:
    """What the traced run keeps of its server requests and updates."""

    def __init__(self) -> None:
        self.requests: List[Tuple[Span, bool]] = []  # (root, cache hit)
        self.retries = 0
        self.updates = 0
        self.invalidated = 0


def apply_update(
    ctx: Context,
    batch: list,
    rec: Optional[Recorder],
    served: Served,
    methods: Sequence[str],
) -> None:
    """One batch through the server, then the ``methods``' algorithms
    back in place, so that plain and traced replays both pay for the
    rebuild outside their requests."""
    cache = ctx.server.cache
    before = cache.stats()["invalidations"]
    ctx.server.apply_updates(batch)
    served.invalidated += cache.stats()["invalidations"] - before
    served.updates += 1
    ensure_algorithms(ctx, rec, methods)


def replay(
    ctx: Context,
    ops: Sequence[Op],
    rec: Optional[Recorder],
    served: Served,
    update_every: int = 0,
) -> Tuple[float, list]:
    """Send ``ops`` through the workload's own path, one at a time.
    Returns (wall seconds, the ``KNNResult`` of each op)."""
    results = []
    start = clock()
    for i, (vertex, method) in enumerate(ops):
        if ctx.server is None:
            results.append(ctx.engine.query(vertex, K, method))
        else:
            root = rec.begin_request("server.request") if rec else None
            response = ctx.server.query(vertex, K, method)
            if rec:
                rec.end_request(root)
                served.requests.append((root, response.cache_hit))
            if not response.ok:
                raise RuntimeError(f"{response.status}: {response.error}")
            served.retries += response.retries
            results.append(response.result)
        if update_every and (i + 1) % update_every == 0:
            apply_update(
                ctx, ctx.updates.next_batch(), rec, served, ctx.workload.methods
            )
    return clock() - start, results


def workload_trace(
    ctx: Context, sample: Sequence[Op], rec: Recorder, served: Served, details: dict
) -> Dict[str, float]:
    """Untraced, then traced, replay of the sample on the workload's own
    path, and the metrics read off the traced one.  The per-span-name
    breakdown goes into ``details``."""
    every = ctx.workload.slice_ops if ctx.workload.updating else 0
    stats_before = ctx.server.stats() if ctx.server else None
    plain_s, _ = replay(ctx, sample, None, served, every)
    stats_after = ctx.server.stats() if ctx.server else None
    instrument(ctx, rec)
    first = len(rec.spans)
    traced_s, results = replay(ctx, sample, rec, served, every)
    spans = rec.spans[first:]

    root_name = "server.request" if ctx.server else "engine.query"
    root_total = sum(s.duration for s in spans if s.name == root_name)
    by_name = self_time_by_name(spans)
    settled = verifications = false_hits = degraded = 0
    for result in results:
        counters = result.counters
        settled += counters["expand_settled"]
        verifications += counters["verify_network_computations"]
        false_hits += counters["verify_false_hits"]
        degraded += result.degraded
    n = len(results)
    calls = collections.Counter(s.name for s in spans)
    details.update({
        # Self times partition each request tree, so this is 1 unless a
        # child span leaks outside its parent: the check that the layers
        # account for the request.
        "coverage": sum(
            t for name, t in by_name.items() if not name.endswith("apply_updates")
        ) / root_total,
        "self_time_share": {name: t / root_total for name, t in sorted(by_name.items())},
        "calls_per_op": {name: calls[name] / n for name in sorted(calls)},
    })
    out = {
        "trace.overhead_share": (traced_s - plain_s) / plain_s,
        "engine.self_share": by_name.get("engine.query", 0.0) / root_total,
        "engine.degraded_share": degraded / n,
        "kernels.settled_per_query": settled / n,
        "knn.ier_verifications_per_query": verifications / n,
        "knn.ier_false_hit_ratio": false_hits / verifications if verifications else 0.0,
    }
    if stats_before is not None:
        out.update(server_counters(stats_before, stats_after, len(sample)))
    return out


def server_counters(before: dict, after: dict, requests: int) -> Dict[str, float]:
    """Hit rate and coalescing over one untraced pass, from the deltas of
    ``KNNServer.stats()``."""
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    coalesced = after["batch"]["coalesced_hits"] - before["batch"]["coalesced_hits"]
    dispatches = after["batch"]["dispatches"] - before["batch"]["dispatches"]
    return {
        "server.cache_hit_rate": hits / (hits + misses),
        "server.coalesced_share": coalesced / requests,
        "server.mean_group_size": requests / dispatches,
    }


def server_passes(
    ctx: Context, sample: Sequence[Op], rec: Recorder, served: Served, details: dict
) -> Dict[str, float]:
    """Cold-cache then hot-cache pass of the sample's first half through
    the server, and the server-layer medians over *all* traced requests."""
    out: Dict[str, float] = {}
    half = sample[: len(sample) // 2]
    if ctx.workload.serve:
        instrument(ctx, rec)
    else:
        ctx.server = KNNServer(
            ctx.engine, workers=wl.SERVER_WORKERS, cache_capacity=wl.CACHE_CAPACITY
        ).start(warmup_methods=ctx.workload.methods)
        instrument(ctx, rec)
        # An engine workload has no server of its own: its hit rate and
        # coalescing are what a default server sees on first contact.
        before = ctx.server.stats()
        replay(ctx, sample, rec, served)
        out.update(server_counters(before, ctx.server.stats(), len(sample)))
    ctx.server.cache.invalidate()
    replay(ctx, half, rec, served)
    replay(ctx, half, rec, served)

    selfs = self_times(rec.spans)
    hit_total = [root.duration for root, hit in served.requests if hit]
    miss_self = [selfs[id(root)] for root, hit in served.requests if not hit]
    waits = [s.duration for s in rec.spans if s.name == "server.queue_wait"]
    gets = [s.duration for s in rec.spans if s.name == "server.cache_get"]
    engine_self = [selfs[id(s)] for s in rec.spans if s.name == "engine.query"]
    out.update({
        "server.self_us": median_us(miss_self),
        "server.hit_path_us": median_us(hit_total),
        "server.queue_wait_us": median_us(waits),
        "server.cache_get_us": median_us(gets),
        "engine.self_us": median_us(engine_self),
        "server.retries_total": float(served.retries),
    })
    details["server_requests"] = {"hits": len(hit_total), "misses": len(miss_self)}
    return out


def per_call_us(calls: int, fn: Callable[[], object]) -> float:
    t0 = clock()
    fn()
    return us(clock() - t0) / calls


def graph_probes(ctx: Context, vertices: Sequence[int]) -> Dict[str, float]:
    """Each layer called directly on the workload's graph and objects."""
    graph, objects, cache = ctx.graph, ctx.engine.objects, ctx.cache
    out: Dict[str, float] = {}

    rtree = RTree(
        [graph.x[o] for o in objects], [graph.y[o] for o in objects], items=objects
    )
    nearest: List[List[int]] = []

    def euclidean():
        for v in vertices:
            cursor = rtree.nearest_cursor(float(graph.x[v]), float(graph.y[v]))
            found = []
            for _ in range(K):
                entry = cursor.next()
                if entry is None:
                    break
                found.append(entry[1])
            nearest.append(found)

    out["spatial.rtree_next_us"] = per_call_us(len(vertices) * K, euclidean)

    from repro.kernels import bulk_sssp, nearest_objects, prepared_objects

    object_array = prepared_objects(objects)
    out["kernels.nearest_objects_us"] = per_call_us(
        len(vertices),
        lambda: [nearest_objects(graph, object_array, v, K) for v in vertices],
    )
    sources = list(vertices[:64])
    out["kernels.bulk_sssp_ms"] = per_call_us(1, lambda: bulk_sssp(graph, sources)) / 1e3
    out["kernels.arrayheap_op_ns"] = arrayheap_op_ns()

    counters = Counters()
    oracle = GTreeOracle(cache.gtree, counters=counters)

    def matrix_probes():
        for v, targets in zip(vertices, nearest):
            oracle.begin_source(v)
            for t in targets:
                oracle.distance(v, t)

    out["index.gtree_oracle_distance_us"] = per_call_us(
        sum(len(t) for t in nearest), matrix_probes
    )
    out["index.gtree_matrix_ops_per_query"] = counters["matrix_ops"] / len(vertices)
    out["index.gtree_mb"] = cache.gtree.size_bytes() / 2**20
    out["index.road_mb"] = cache.road.size_bytes() / 2**20

    out.update(method_probes(ctx, GRAPH_METHODS, vertices))
    planned = ctx.engine.resolve_method("auto", K)
    out["engine.planner_regret"] = out[f"knn.{planned}_us"] / min(
        out[f"knn.{m}_us"] for m in GRAPH_METHODS
    )
    return out


def arrayheap_op_ns(pairs: int = 10_000) -> float:
    """One push + one pop on ``ArrayHeap``; 0 once the symbol is gone
    (the ROADMAP's heap collapse may remove it)."""
    try:
        from repro.kernels import ArrayHeap
    except ImportError:
        return 0.0
    keys = np.random.default_rng(0).random(pairs).tolist()
    heap = ArrayHeap()
    t0 = clock()
    for i, key in enumerate(keys):
        heap.push(key, i)
    while heap:
        heap.pop()
    return (clock() - t0) / pairs * 1e9


def method_probes(ctx: Context, methods: Sequence[str], vertices: Sequence[int]) -> Dict[str, float]:
    """``engine.algorithm(m).knn(v, k)`` directly, mean µs per query."""
    out = {}
    for method in methods:
        knn = ctx.engine.algorithm(method).knn
        out[f"knn.{method}_us"] = per_call_us(
            len(vertices), lambda: [knn(v, K) for v in vertices]
        )
    return out


def comparison_probes(cmp: Context, stages: Dict[str, float], vertices: Sequence[int]) -> Dict[str, float]:
    """The method-comparison layers, on the comparison network."""
    out = {
        "index.silc_build_s": stages["silc_build_s"],
        **{f"pathfinding.{k}_build_s": stages[f"{k}_build_s"] for k in COMPARISON_ORACLES},
    }
    rng = np.random.default_rng(cmp.seed)
    pairs = rng.integers(0, cmp.graph.num_vertices, size=(2000, 2)).tolist()
    for kind in COMPARISON_ORACLES:
        distance = getattr(cmp.cache, kind).distance
        out[f"pathfinding.{kind}_distance_us"] = per_call_us(
            len(pairs), lambda: [distance(s, t) for s, t in pairs]
        )
    out.update(method_probes(cmp, COMPARISON_METHODS, vertices))
    return out


def update_probes(ctx: Context, sample: Sequence[Op], rec: Recorder, served: Served) -> Dict[str, float]:
    """Weight-only, object-only and mixed batches through
    ``KNNServer.apply_updates`` with G-tree and ROAD resident; the cache
    is refilled between batches so every update has entries to
    invalidate."""
    if ctx.updates is None:
        graph = ctx.graph
        ctx.updates = wl.UpdateStream(
            ctx.workload, wl.UPDATE_SEED, graph.vertex_start, graph.edge_target,
            graph.edge_weight, ctx.engine.objects,
        )
    rec.wrap(ctx.engine, "apply_updates", "engine.apply_updates")
    rec.wrap(ctx.server, "apply_updates", "server.apply_updates")
    # ``auto`` only: a weight update drops SILC, hub labels and TNR for
    # good, and rebuilding them per batch would take the run a minute.
    refill = [(vertex, "auto") for vertex, _ in sample[:200]]
    shapes = {
        "weight": (UPDATE_PROBE_DELTAS, 0),
        "object": (0, UPDATE_PROBE_DELTAS),
        # The serve-mixed batch; its own-path batches count here too.
        "mixed": (wl.BATCH_WEIGHT_DELTAS, wl.BATCH_OBJECT_DELTAS),
    }
    engine_ms: Dict[str, List[float]] = {kind: [] for kind in shapes}
    mixed_before = [
        s.duration * 1e3 for s in rec.spans if s.name == "server.apply_updates"
    ]
    for kind, (weights, objects) in shapes.items():
        for _ in range(UPDATE_PROBE_BATCHES):
            replay(ctx, refill, None, served)
            first = len(rec.spans)
            apply_update(
                ctx, ctx.updates.next_batch(weights, objects), None, served, ("auto",)
            )
            name = "server.apply_updates" if kind == "mixed" else "engine.apply_updates"
            engine_ms[kind] += [
                s.duration * 1e3 for s in rec.spans[first:] if s.name == name
            ]
    return {
        "updates.weight_batch_ms": statistics.median(engine_ms["weight"]),
        "updates.object_batch_ms": statistics.median(engine_ms["object"]),
        "server.update_apply_ms": statistics.median(mixed_before + engine_ms["mixed"]),
        "server.invalidated_per_update": served.invalidated / served.updates,
    }


def store_probes(ctx: Context, scratch: str) -> Dict[str, float]:
    """Save, reload and raw ``put`` of the G-tree artifact."""
    root = tempfile.mkdtemp(prefix="store-probe-", dir=scratch)
    try:
        IndexCache(ctx.graph, store=IndexStore(root)).prebuild(["gtree"])
        builds = builds_so_far()
        t0 = clock()
        IndexCache(ctx.graph, store=IndexStore(root)).prebuild(["gtree"])
        load_ms = (clock() - t0) * 1e3
        if builds_so_far() != builds:
            raise RuntimeError("reopened store rebuilt the G-tree instead of loading it")
        arrays = ctx.cache.gtree.to_arrays()
        t0 = clock()
        info = IndexStore(root).put("gtree", "trajectory-probe", arrays)
        put_ms = (clock() - t0) * 1e3
        in_memory = sum(np.asarray(a).nbytes for a in arrays.values())
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "store.put_ms": put_ms,
        "store.load_ms": load_ms,
        "store.bytes_ratio": info.nbytes / in_memory,
    }


def obs_overhead(ctx: Context, sample: Sequence[Op]) -> float:
    """``engine.query`` with metrics on over the same ops inside
    ``repro.obs.disabled()``: median paired ratio minus one."""
    query = ctx.engine.query

    def chunk(i: int) -> Sequence[Op]:
        lo = (i * OBS_PAIR_OPS) % max(1, len(sample) - OBS_PAIR_OPS)
        return sample[lo:lo + OBS_PAIR_OPS]

    def timed(i: int) -> float:
        t0 = clock()
        for vertex, method in chunk(i):
            query(vertex, K, method)
        return clock() - t0

    def off(i: int) -> float:
        with obs.disabled():
            return timed(i)

    return estimators.paired_median_ratio(off, timed, OBS_PAIRS) - 1.0


def traced(args, workload: Workload, scratch: str, units: Dict[str, str]) -> dict:
    """The whole traced run; returns the report (without ``meta``).
    ``units`` maps every per-layer metric name to its unit."""
    stages: Dict[str, float] = {}
    ctx = driver.set_up(workload, args.seed, scratch, stages.__setitem__)
    cmp = ctx
    cmp_stages = stages
    try:
        driver.settle(ctx)
        ensure_algorithms(ctx, None, workload.methods)
        for kind in ("gtree", "road"):
            if f"{kind}_build_s" not in stages:
                t0 = clock()
                ctx.cache.prebuild([kind])
                stages[f"{kind}_build_s"] = clock() - t0
        if workload.name != COMPARISON.name:
            cmp_stages = {}
            cmp = driver.set_up(
                wl.quick(COMPARISON) if args.quick else COMPARISON,
                args.seed, scratch, cmp_stages.__setitem__,
            )
        count = max(2 * OBS_PAIR_OPS, int(TRACE_OPS_PER_SECOND * args.seconds))
        sample = ctx.stream(wl.SAMPLE_CLIENT, count)
        vertices = [v for v, _ in sample[: max(50, count // 8)]]
        cmp_vertices = [v for v, _ in cmp.stream(wl.SAMPLE_CLIENT, max(50, count // 10))]

        rec = Recorder()
        served = Served()
        details: dict = {}
        metrics: Dict[str, float] = {
            "graph.generate_s": stages["graph.generate_s"],
            "index.gtree_build_s": stages["gtree_build_s"],
            "index.road_build_s": stages["road_build_s"],
        }
        metrics.update(workload_trace(ctx, sample, rec, served, details))
        metrics.update(server_passes(ctx, sample, rec, served, details))
        rec.unwrap_all()
        metrics.update(graph_probes(ctx, vertices))
        metrics.update(comparison_probes(cmp, cmp_stages, cmp_vertices))
        metrics["obs.overhead_share"] = obs_overhead(ctx, sample)
        metrics.update(store_probes(ctx, scratch))
        metrics.update(update_probes(ctx, sample, rec, served))
        rec.unwrap_all()
    finally:
        ctx.close()
        if cmp is not ctx:
            cmp.close()
    span_file = f"{scratch}/trace-{args.workload}.jsonl"
    rec.write_jsonl(span_file)

    details.update({"trace_ops": count, "spans": len(rec.spans), "span_file": span_file})
    problems = []
    if details["coverage"] < 0.9:
        problems.append(f"layer self times cover only {details['coverage']:.2f} of the requests")
    details["problems"] = problems
    return {
        "correct": not problems,
        "attempted": len(served.requests) + served.updates or count,
        "failed": len(problems),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
        "details": details,
    }
