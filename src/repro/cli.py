"""Command-line interface: quick queries and experiments without code.

Examples::

    # generate a network, drop objects, answer one query with every method
    python -m repro query --vertices 2000 --density 0.01 --k 5 --query 42

    # let the engine's planner pick the method for the workload
    python -m repro query --vertices 2000 --methods auto

    # compare method timings at several densities
    python -m repro compare --vertices 2000 --k 10

    # prebuild every index the main methods need and persist them
    python -m repro build --vertices 2000 --store ./store

    # answer queries warm-starting from the persisted indexes
    python -m repro query --vertices 2000 --store ./store

    # inspect / clean the artifact store
    python -m repro store ls --store ./store
    python -m repro store gc --store ./store

    # stream a (gzipped) DIMACS file into a memory-mappable artifact,
    # then serve it zero-copy
    python -m repro ingest --gr USA.gr.gz --co USA.co.gz --store ./store
    python -m repro serve --store ./store --graph-key <printed key>

    # serve queries concurrently from stdin over warm indexes
    python -m repro serve --vertices 2000 --store ./store --workers 4

    # list every registered kNN method
    python -m repro methods

    # dataset statistics for a DIMACS file
    python -m repro info --gr network.gr --co network.co
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.engine import (
    IndexCache,
    MethodUnavailable,
    QueryEngine,
    get_method,
    known_methods,
    method_specs,
)
from repro.experiments.runner import measure_query_time, random_queries
from repro.graph.dimacs import load_dimacs
from repro.graph.generators import road_network, travel_time_weights
from repro.graph.graph import Graph
from repro.objects import uniform_objects
from repro.store import (
    ArtifactMissing,
    IndexStore,
    StoreError,
    artifact_key,
    expand_kinds,
    load_objects,
    save_graph,
    save_objects,
)
from repro.utils.counters import BUILD_COUNTERS


def _build_graph(args: argparse.Namespace):
    if getattr(args, "graph_key", None):
        store = _open_store(args)
        if store is None:
            raise StoreError("--graph-key requires --store PATH")
        # Zero-copy for flat artifacts: the serve workers then
        # share one mapped graph through the page cache.
        graph = Graph.from_store_mmap(store, args.graph_key)
    elif getattr(args, "gr", None):
        graph = load_dimacs(args.gr, getattr(args, "co", None))
    else:
        graph = road_network(args.vertices, seed=args.seed)
    if getattr(args, "travel_time", False):
        graph = travel_time_weights(graph, seed=args.seed)
    return graph


def _open_store(args: argparse.Namespace) -> Optional[IndexStore]:
    path = getattr(args, "store", None)
    return IndexStore(path) if path else None


def _validate_methods(methods: Optional[Sequence[str]]) -> Optional[str]:
    """Return an error message for the first unknown method, else None.

    ``"auto"`` is accepted everywhere a method name is: the engine's
    planner resolves it per workload.
    """
    known = known_methods()
    for name in methods or ():
        if name != "auto" and name not in known:
            return (
                f"unknown method {name!r}; known methods: "
                f"{', '.join(['auto'] + known)}"
            )
    return None


def cmd_query(args: argparse.Namespace) -> int:
    graph, objects, engine = _engine_and_objects(args)
    query = args.query if args.query is not None else graph.num_vertices // 2
    print(f"{graph}, |O|={len(objects)}, query={query}, k={args.k}")
    methods = args.methods or engine.available_methods()
    reference: Optional[List[float]] = None
    reference_method: Optional[str] = None
    ran = 0
    for method in methods:
        try:
            result = engine.query(query, args.k, method=method)
        except MethodUnavailable as exc:
            print(f"  {method:10} unavailable: {exc.reason}", file=sys.stderr)
            continue
        ran += 1
        shown = ", ".join(
            f"v{n.vertex}@{n.distance:.2f}" for n in result.neighbors
        )
        label = result.method if method == "auto" else method
        print(f"  {label:10} [{shown}]  ({result.time_us:.0f}us)")
        if reference is None:
            reference = result.distances
            reference_method = label
        elif not np.allclose(reference, result.distances, rtol=1e-9):
            print(f"  !! {label} disagrees with {reference_method}", file=sys.stderr)
            return 1
    if ran == 0:
        print("no runnable methods", file=sys.stderr)
        return 1
    print("all methods agree")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    engine = QueryEngine(graph, [], seed=args.seed, store=_open_store(args))
    queries = random_queries(graph, args.queries, seed=args.seed)
    methods = args.methods or engine.available_methods()
    densities = args.densities or [0.001, 0.01, 0.1]
    header = f"{'method':10}" + "".join(f"{d:>12}" for d in densities)
    print(f"{graph}, k={args.k}, {args.queries} queries/cell")
    print(header)
    per_density = {
        density: engine.with_objects(
            uniform_objects(graph, density, seed=args.seed, minimum=args.k)
        )
        for density in densities
    }
    for method in methods:
        row = f"{method:10}"
        for density in densities:
            dense_engine = per_density[density]
            try:
                resolved = dense_engine.resolve_method(method, args.k)
                alg = dense_engine.algorithm(resolved)
            except MethodUnavailable:
                row += f"{'n/a':>12}"
                continue
            row += f"{measure_query_time(alg, queries, args.k):>10.0f}us"
        print(row)
    return 0


def cmd_methods(args: argparse.Namespace) -> int:
    """List registered methods; with a graph, report applicability."""
    bench = None
    if args.vertices or getattr(args, "gr", None):
        bench = IndexCache(_build_graph(args))
        print(f"availability on: {bench.graph}")
    print(f"{'name':11} {'requires':22} summary")
    for spec in method_specs():
        requires = ",".join(spec.requires) or "-"
        line = f"{spec.name:11} {requires:22} {spec.summary}"
        if bench is not None:
            reason = spec.availability(bench)
            if reason is not None:
                line += f"  [unavailable: {reason}]"
        print(line)
    print(
        "\n'auto' is also accepted: the engine plans INE at high object "
        "density and IER/G-tree at low density."
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    """Prebuild road-network indexes and persist them to a store.

    The set of indexes comes from the registry's per-method ``requires``
    declarations — exactly what the chosen methods will need at query
    time, nothing more.
    """
    store = _open_store(args)
    if store is None:
        print("build requires --store PATH", file=sys.stderr)
        return 2
    try:
        expand_kinds(args.indexes or ())
    except ValueError as exc:  # an unknown index kind
        print(exc, file=sys.stderr)
        return 2
    graph = _build_graph(args)
    if not store.contains("graph", artifact_key(graph)):
        save_graph(store, graph)
    bench = IndexCache(graph, seed=args.seed, store=store)
    if args.indexes:
        kinds = list(dict.fromkeys(args.indexes))
    else:
        methods = args.methods or bench.available_methods()
        if "auto" in methods:
            # The planner may pick any main method depending on density,
            # so "auto" prewarms everything the main lineup needs.
            methods = list(
                dict.fromkeys(
                    [m for m in methods if m != "auto"]
                    + bench.available_methods()
                )
            )
        kinds = list(
            dict.fromkeys(req for m in methods for req in get_method(m).requires)
        )
    # Dependencies first (TNR/hub labels ride on CH) so each per-kind
    # timing/label below reflects only that kind's own work.
    kinds = expand_kinds(kinds)
    print(f"{graph} -> {store.root}")
    for kind in kinds:
        counter = f"build:{kind}"
        before = BUILD_COUNTERS.as_dict().get(counter, 0)
        start = time.perf_counter()
        obtained = bench.prebuild([kind])  # owns the applicability skips
        elapsed = time.perf_counter() - start
        if not obtained:
            print(f"  {kind:11} skipped ({bench.unavailable_reason(kind)})")
            continue
        index = getattr(bench, kind)
        how = "built" if BUILD_COUNTERS.as_dict().get(counter, 0) > before else "loaded"
        print(
            f"  {kind:11} {how} in {elapsed:.2f}s "
            f"({index.size_bytes() / 1024:.0f} KB in memory)"
        )
    if args.density is not None:
        obj_params = {"density": args.density, "seed": args.seed}
        if store.contains("objects", artifact_key(graph, obj_params)):
            print("  objects     already stored")
        else:
            objects = uniform_objects(graph, args.density, seed=args.seed)
            save_objects(store, graph, objects, params=obj_params)
            print(f"  objects     saved ({len(objects)} vertices)")
    print(f"store now holds {len(store.entries())} artifacts")
    return 0


def _existing_store(args: argparse.Namespace) -> Optional[IndexStore]:
    """The store at ``--store``, or None (with a message) if absent.

    Inspection commands must not mkdir a typo'd path into existence.
    """
    store = _open_store(args)
    if store is None or not store.root.is_dir():
        where = store.root if store is not None else "(empty --store path)"
        print(f"no store at {where}", file=sys.stderr)
        return None
    return store


def cmd_store_ls(args: argparse.Namespace) -> int:
    """List every artifact in the store."""
    store = _existing_store(args)
    if store is None:
        return 2
    entries = store.entries()
    stale = store.stale_entry_count()
    stale_note = (
        f" (+{stale} from another store format; run `repro store gc` to reclaim)"
        if stale
        else ""
    )
    if not entries:
        print(f"{store.root}: empty store{stale_note}")
        return 0
    total_kb = sum(e.nbytes for e in entries) / 1024
    mapped_kb = sum(e.mapped_nbytes for e in entries) / 1024
    print(f"{store.root}: {len(entries)} artifacts, "
          f"{total_kb:.0f} KB on disk, {mapped_kb:.0f} KB mapped{stale_note}")
    print(f"{'kind':11} {'key':17} {'fmt':4} {'on-disk':>9} {'mapped':>9} "
          f"{'build':>8}  params")
    for e in entries:
        params = ", ".join(f"{k}={v}" for k, v in sorted(e.params.items()))
        # mapped_nbytes is 0 on entries written before the field existed;
        # show "-" so operators can spot artifacts needing migration.
        mapped = f"{e.mapped_nbytes / 1024:>7.0f}KB" if e.mapped_nbytes else (
            f"{'-':>9}"
        )
        print(
            f"{e.kind:11} {e.key:17} {e.format:4} {e.nbytes / 1024:>7.0f}KB "
            f"{mapped} {e.build_time_s:>7.2f}s  {params or '-'}"
        )
    return 0


def cmd_store_gc(args: argparse.Namespace) -> int:
    """Sweep corrupt, version-mismatched and orphaned artifacts."""
    store = _existing_store(args)
    if store is None:
        return 2
    removed = store.gc(dry_run=args.dry_run, clear=args.all)
    verb = "would remove" if args.dry_run else "removed"
    if not removed:
        print("store is clean; nothing to collect")
        return 0
    for artifact_id, reason in removed:
        print(f"{verb} {artifact_id}: {reason}")
    print(f"{verb} {len(removed)} artifacts")
    return 0


def _engine_and_objects(args: argparse.Namespace):
    """Graph + object set + engine shared by query/serve/trace.

    With a ``--store``, the object set `repro build --density` persisted
    for this (graph, density, seed) is preferred (regenerated on a clean
    miss or when saved without the k-minimum this run needs) and the
    engine warm-starts its indexes from disk.
    """
    graph = _build_graph(args)
    store = _open_store(args)
    objects = None
    if store is not None:
        try:
            objects = [
                int(o)
                for o in load_objects(
                    store,
                    graph,
                    params={"density": args.density, "seed": args.seed},
                )
            ]
        except ArtifactMissing:
            objects = None
        if objects is not None and len(objects) < args.k:
            objects = None
    if objects is None:
        objects = uniform_objects(
            graph, args.density, seed=args.seed, minimum=args.k
        )
    engine = QueryEngine(graph, objects, seed=args.seed, store=store)
    return graph, objects, engine


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the concurrent server, answering queries read from stdin.

    Protocol: one request per line, ``VERTEX K [METHOD]``; the command
    lines ``stats`` (JSON statistics; ``stats flush`` also closes the
    since-flush window), ``metrics`` (Prometheus text) and ``health``
    (worker liveness, circuit breakers, quarantine counts) report on
    the running server; EOF stops it and prints its statistics.  Index
    builds happen during warmup, never while serving — point
    ``--store`` at a prebuilt store and warmup is a millisecond disk
    load.
    """
    from repro.server import KNNServer

    graph, objects, engine = _engine_and_objects(args)
    server = KNNServer(
        engine,
        workers=args.workers,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        cache_capacity=args.cache_capacity,
        default_deadline_s=args.deadline,
    )
    server.start(warmup_methods=[args.method])
    builds_before = sum(BUILD_COUNTERS.as_dict().values())
    print(
        f"{graph}, |O|={len(objects)}, {args.workers} workers; "
        "reading 'VERTEX K [METHOD]' lines from stdin "
        "('stats' / 'metrics' / 'health' report on the running server)"
    )
    try:
        for line in sys.stdin:
            parts = line.split()
            if not parts:
                continue
            command = parts[0].lower()
            if command == "stats":
                snapshot = (
                    server.flush_stats()
                    if len(parts) > 1 and parts[1] == "flush"
                    else server.stats()
                )
                print(json.dumps(snapshot, indent=2, sort_keys=True))
                continue
            if command == "metrics":
                print(server.metrics_text())
                continue
            if command == "health":
                print(json.dumps(server.health(), indent=2, sort_keys=True))
                continue
            try:
                vertex = int(parts[0])
                k = int(parts[1]) if len(parts) > 1 else args.k
                method = parts[2] if len(parts) > 2 else args.method
            except ValueError:
                print(f"bad request line: {line.strip()!r}", file=sys.stderr)
                continue
            response = server.query(vertex, k, method)
            if response.ok:
                shown = ", ".join(
                    f"v{n.vertex}@{n.distance:.2f}"
                    for n in response.result.neighbors
                )
                extra = " [cached]" if response.cache_hit else ""
                print(
                    f"ok {response.latency_s * 1e3:.2f}ms "
                    f"{response.result.method} [{shown}]{extra}"
                )
            else:
                print(f"{response.status}: {response.error}", file=sys.stderr)
    finally:
        server.stop()
    stats = server.stats()
    builds = sum(BUILD_COUNTERS.as_dict().values()) - builds_before
    print(
        f"served {stats['counts'].get('ok', 0)} requests, "
        f"cache hit rate {stats['cache']['hit_rate']:.0%}, "
        f"index builds while serving: {builds}"
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Trace one query and pretty-print its span tree.

    Runs the query twice: once cold (indexes/algorithms may build — the
    ``ensure`` span shows what that costs) and once warm, printing both
    trees so the preprocessing/query split is visible in one command.
    """
    from repro.obs import TRACER, tracing

    graph, objects, engine = _engine_and_objects(args)
    query = args.query if args.query is not None else graph.num_vertices // 2
    print(f"{graph}, |O|={len(objects)}, query={query}, k={args.k}")
    trees = []
    with tracing(clear=True):
        for label in ("cold", "warm"):
            engine.query(query, args.k, method=args.method)
            tree = TRACER.recent(1)[0]
            trees.append({"run": label, "trace": tree.to_dict()})
            print(f"-- {label} --")
            print(tree.pretty())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(trees, fh, indent=2, sort_keys=True)
        print(f"trace written to {args.json}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Stream a DIMACS file into a store graph artifact.

    Unlike ``--gr`` on the other commands (which materialises the whole
    arc set through ``load_dimacs``), ingest runs the chunked
    sort/spill/merge pipeline under ``--memory-budget-mb`` and writes
    straight to the store — the path for continental-scale inputs.  The
    printed key feeds ``--graph-key`` on query/serve/trace.
    """
    from repro.graph.ingest import ingest_dimacs

    store = _open_store(args)
    report = ingest_dimacs(
        args.gr,
        args.co,
        store,
        name=args.name,
        memory_budget_mb=args.memory_budget_mb,
        restrict_to_lcc=not args.keep_components,
        tmp_dir=args.tmp_dir,
    )
    print(f"{args.gr} -> {store.root}")
    print(f"  vertices        {report.num_vertices}")
    print(f"  edges           {report.num_edges}")
    print(f"  arcs read       {report.arcs_read} "
          f"({report.runs_spilled} sorted run(s) spilled)")
    if report.restricted_to_lcc and report.components_dropped:
        print(f"  components dropped  {report.components_dropped}")
    print(f"  artifact        {report.artifact_nbytes / 1e6:.1f} MB on disk, "
          f"{report.artifact_mapped_nbytes / 1e6:.1f} MB mapped")
    print(f"  ingest time     {report.ingest_time_s:.2f}s")
    print(f"  graph key       {report.key}")
    print(f"load it with: --store {store.root} --graph-key {report.key}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    degrees = np.diff(graph.vertex_start)
    print(graph)
    print(f"  avg degree      {float(degrees.mean()):.2f}")
    print(f"  degree-2 share  {100 * float((degrees == 2).mean()):.1f}%")
    print(f"  max speed S     {graph.max_speed():.2f}")
    print(f"  CSR footprint   {graph.size_bytes() / 1024:.0f} KB")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="kNN on road networks (VLDB 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_vertices: int = 2000) -> None:
        p.add_argument("--vertices", type=int, default=default_vertices,
                       help="synthetic network size (ignored with --gr)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--gr", help="DIMACS .gr file instead of a synthetic network")
        p.add_argument("--co", help="DIMACS .co coordinate file")
        p.add_argument("--travel-time", action="store_true",
                       help="use travel-time edge weights")
        p.add_argument("--graph-key",
                       help="load the graph from a store artifact (requires "
                            "--store; flat artifacts load zero-copy via mmap)")

    q = sub.add_parser("query", help="answer one kNN query with every method")
    common(q)
    q.add_argument("--density", type=float, default=0.01)
    q.add_argument("--k", type=int, default=5)
    q.add_argument("--query", type=int, help="query vertex (default: centre id)")
    q.add_argument("--methods", nargs="*",
                   help="subset of methods to run ('auto' lets the engine pick)")
    q.add_argument("--store", help="index store directory to warm-start from")
    q.set_defaults(func=cmd_query)

    c = sub.add_parser("compare", help="timing table across densities")
    common(c)
    c.add_argument("--k", type=int, default=10)
    c.add_argument("--queries", type=int, default=20)
    c.add_argument("--densities", nargs="*", type=float)
    c.add_argument("--methods", nargs="*")
    c.add_argument("--store", help="index store directory to warm-start from")
    c.set_defaults(func=cmd_compare)

    b = sub.add_parser(
        "build", help="prebuild indexes and persist them to a store"
    )
    common(b)
    b.add_argument("--store", required=True,
                   help="index store directory (created if absent)")
    b.add_argument("--methods", nargs="*",
                   help="persist what these methods require (default: all "
                        "main methods runnable on the network)")
    b.add_argument("--indexes", nargs="*",
                   help="explicit index kinds instead (gtree road silc ch "
                        "hub_labels tnr)")
    b.add_argument("--density", type=float,
                   help="also save a uniform object set at this density")
    b.set_defaults(func=cmd_build)

    ig = sub.add_parser(
        "ingest",
        help="stream a DIMACS .gr/.co (optionally .gz) into a store graph "
             "artifact under a memory budget",
    )
    ig.add_argument("--gr", required=True,
                    help="DIMACS .gr or .gr.gz arc file")
    ig.add_argument("--co", help="DIMACS .co or .co.gz coordinate file")
    ig.add_argument("--store", required=True,
                    help="index store directory (created if absent)")
    ig.add_argument("--memory-budget-mb", type=float, default=512.0,
                    help="ingest working-set budget; parse chunks, spill "
                         "runs and vectorised blocks derive from it")
    ig.add_argument("--name", help="graph name (default: the .gr basename)")
    ig.add_argument("--keep-components", action="store_true",
                    help="keep disconnected fragments instead of restricting "
                         "to the largest connected component")
    ig.add_argument("--tmp-dir",
                    help="scratch directory for spill runs (default: system "
                         "temp; point at a large disk for continental inputs)")
    ig.set_defaults(func=cmd_ingest)

    s = sub.add_parser("store", help="inspect or clean an index store")
    ssub = s.add_subparsers(dest="store_command", required=True)
    sls = ssub.add_parser("ls", help="list artifacts")
    sls.add_argument("--store", required=True)
    sls.set_defaults(func=cmd_store_ls)
    sgc = ssub.add_parser(
        "gc", help="remove corrupt, version-mismatched and orphaned artifacts"
    )
    sgc.add_argument("--store", required=True)
    sgc.add_argument("--dry-run", action="store_true",
                     help="report what would be removed without removing")
    sgc.add_argument("--all", action="store_true",
                     help="clear the entire store")
    sgc.set_defaults(func=cmd_store_gc)

    sv = sub.add_parser(
        "serve", help="serve kNN queries concurrently from stdin"
    )
    common(sv)
    sv.add_argument("--workers", type=int, default=4,
                    help="worker thread count (default 4)")
    sv.add_argument("--max-queue", type=int, default=1024,
                    help="bounded request queue (admission control)")
    sv.add_argument("--max-batch", type=int, default=32,
                    help="max requests one worker drains per dispatch")
    sv.add_argument("--cache-capacity", type=int, default=4096,
                    help="result-cache entries (0 disables)")
    sv.add_argument("--deadline", type=float,
                    help="default per-request deadline in seconds")
    sv.add_argument("--density", type=float, default=0.01)
    sv.add_argument("--k", type=int, default=5)
    sv.add_argument("--method", default="auto",
                    help="method for served queries ('auto' plans per set)")
    sv.add_argument("--store", help="index store directory to warm-start from")
    sv.set_defaults(func=cmd_serve)

    tr = sub.add_parser(
        "trace", help="trace one query and pretty-print its span tree"
    )
    common(tr)
    tr.add_argument("--density", type=float, default=0.01)
    tr.add_argument("--k", type=int, default=5)
    tr.add_argument("--query", type=int,
                    help="query vertex (default: centre id)")
    tr.add_argument("--method", default="auto",
                    help="method to trace ('auto' lets the engine pick)")
    tr.add_argument("--store", help="index store directory to warm-start from")
    tr.add_argument("--json", default="",
                    help="also write the span trees as JSON ('' disables)")
    tr.set_defaults(func=cmd_trace)

    m = sub.add_parser("methods", help="list registered kNN methods")
    common(m, default_vertices=0)
    m.set_defaults(func=cmd_methods)

    i = sub.add_parser("info", help="dataset statistics")
    common(i)
    i.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every command naming methods takes either --methods or --method.
    error = _validate_methods(
        getattr(args, "methods", None) or [getattr(args, "method", "auto")]
    )
    if error:
        print(error, file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except StoreError as exc:
        # Anticipated store damage: surface the curated repair message
        # (e.g. "run `repro store gc`, then rebuild") as a one-liner, in
        # the same message-plus-exit-code style as other user errors.
        print(f"store error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
