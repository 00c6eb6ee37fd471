"""Streaming DIMACS ingest: continental graphs into flat store artifacts.

``load_dimacs`` holds the whole arc set in a Python dict — fine at the
laptop scale the tests run, hopeless for the paper's headline networks
(USA: 24M vertices, 58M arcs).  :func:`ingest_dimacs` streams a ``.gr``
(+ optional ``.co``) file — gzipped or plain — into a CSR ``graph``
artifact under an explicit **memory budget**:

1. Arc lines are parsed in bounded chunks; each chunk is normalised to
   ``u < v``, sorted, deduplicated (minimum weight wins, matching
   ``load_dimacs``) and spilled to disk as a sorted run.
2. Runs are k-way merged (streaming, ``heapq.merge``) into one sorted,
   deduplicated arc file — a disk-backed memmap, never a dict.
3. The CSR arrays are filled block-vectorised into ``np.lib.format``
   memmaps: degree counting, chunked prefix sum, a counting-sort style
   scatter, then a segmented per-row sort so adjacency lists come out
   sorted by target exactly as ``GraphBuilder`` emits them.
4. Optionally (default, matching ``load_dimacs``) the graph is
   restricted to its largest connected component, again block-vectorised
   over the memmaps.

The result is written through ``IndexStore.put`` — a straight stream
from scratch memmaps to per-array ``.npy`` files — and the ingested
graph is then served zero-copy via :meth:`Graph.from_store_mmap`.

The byte-level contract: for inputs small enough to compare,
``ingest_dimacs`` produces a graph whose :meth:`Graph.fingerprint` is
identical to ``load_dimacs`` on the same files (same dedup rule, same
adjacency order, same default coordinates, same LCC restriction) — the
tier-1 suite holds that line.
"""

from __future__ import annotations

import heapq
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.graph.dimacs import open_dimacs
from repro.graph.graph import Graph

#: One undirected arc record in a spilled run: endpoints with u < v.
ARC_DTYPE = np.dtype([("u", "<i8"), ("v", "<i8"), ("w", "<f8")])

#: Floor for chunk/block sizes so tiny budgets stay functional instead
#: of degenerating into per-line spills.
_MIN_CHUNK_ROWS = 4096


@dataclass
class IngestReport:
    """What one ingest run did — the CLI prints this, tests assert on it."""

    key: str
    num_vertices: int
    num_edges: int
    arcs_read: int
    runs_spilled: int
    restricted_to_lcc: bool
    components_dropped: int
    ingest_time_s: float
    artifact_nbytes: int
    artifact_mapped_nbytes: int


def _chunk_rows(memory_budget_mb: float) -> int:
    """Parse-chunk size: the budget's dominant term is the Python-level
    int/float objects a chunk holds before vectorisation (~160 B/arc)."""
    budget = max(1.0, float(memory_budget_mb)) * 1e6
    return max(_MIN_CHUNK_ROWS, min(int(budget * 0.25 / 160), 8 << 20))


def _block_rows(memory_budget_mb: float) -> int:
    """Vector-op block size: each block materialises a handful of
    int64/float64 scratch arrays (~64 B/arc across the fill pipeline)."""
    budget = max(1.0, float(memory_budget_mb)) * 1e6
    return max(_MIN_CHUNK_ROWS, int(budget * 0.25 / 64))


def _dedup_sorted(
    u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse consecutive duplicate (u, v) pairs keeping the min weight."""
    if len(u) == 0:
        return u, v, w
    new = np.empty(len(u), dtype=bool)
    new[0] = True
    new[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    starts = np.nonzero(new)[0]
    return u[starts], v[starts], np.minimum.reduceat(w, starts)


def _spill_run(
    tmp: Path, index: int, us: List[int], vs: List[int], ws: List[float]
) -> Tuple[Optional[Path], int]:
    """Normalise, sort, dedup one parsed chunk and write it as a run.

    Returns ``(path, rows)``; ``(None, 0)`` when the chunk had no
    surviving arcs (all self-loops).
    """
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    w = np.asarray(ws, dtype=np.float64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keep = lo != hi  # drop self-loops, as load_dimacs does
    lo, hi, w = lo[keep], hi[keep], w[keep]
    if len(lo) == 0:
        return None, 0
    order = np.lexsort((hi, lo))
    lo, hi, w = _dedup_sorted(lo[order], hi[order], w[order])
    rec = np.empty(len(lo), dtype=ARC_DTYPE)
    rec["u"], rec["v"], rec["w"] = lo, hi, w
    path = tmp / f"run-{index:05d}.npy"
    with open(path, "wb") as fh:
        np.save(fh, rec, allow_pickle=False)
    return path, len(rec)


def _parse_arcs(
    gr_path, tmp: Path, chunk: int
) -> Tuple[int, int, List[Path]]:
    """Stream the ``.gr`` file into sorted runs.

    Returns ``(num_vertices, arcs_read, run_paths)``.  The vertex count
    honours both the ``p sp`` header and the largest id actually seen
    (real exports have renumbering gaps past the header count).
    """
    num_vertices = 0
    max_id = -1
    arcs_read = 0
    runs: List[Path] = []
    us: List[int] = []
    vs: List[int] = []
    ws: List[float] = []

    def flush() -> None:
        path, _rows = _spill_run(tmp, len(runs), us, vs, ws)
        if path is not None:
            runs.append(path)
        us.clear()
        vs.clear()
        ws.clear()

    with open_dimacs(gr_path) as stream:
        for line in stream:
            # Match _parse_gr's tolerance: split first, dispatch on the
            # token — arc lines may carry leading whitespace.
            parts = line.split()
            if not parts or parts[0] != "a":
                if parts and parts[0] == "p":
                    num_vertices = int(parts[2])
                continue
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            if u > max_id:
                max_id = u
            if v > max_id:
                max_id = v
            us.append(u)
            vs.append(v)
            ws.append(float(parts[3]))
            arcs_read += 1
            if len(us) >= chunk:
                flush()
    flush()
    return max(num_vertices, max_id + 1), arcs_read, runs


def _iter_run(rec: np.ndarray, block: int) -> Iterator[Tuple[int, int, float]]:
    """Stream a sorted run as tuples, touching ``block`` rows at a time."""
    for i in range(0, len(rec), block):
        chunk = rec[i : i + block]
        yield from zip(
            chunk["u"].tolist(), chunk["v"].tolist(), chunk["w"].tolist()
        )


def _merge_runs(runs: List[Path], tmp: Path, block: int) -> Tuple[np.ndarray, int]:
    """K-way merge sorted runs into one deduplicated arc memmap.

    Returns ``(arc_memmap, logical_length)`` — the memmap is allocated
    at the pessimistic pre-dedup size; callers slice to the logical
    length.  With a single run this is a zero-work mmap of that run.
    """
    if len(runs) == 1:
        rec = np.load(runs[0], mmap_mode="r")
        return rec, len(rec)
    mapped = [np.load(p, mmap_mode="r") for p in runs]
    total = int(sum(len(a) for a in mapped))
    out = np.lib.format.open_memmap(
        tmp / "merged.npy", mode="w+", dtype=ARC_DTYPE, shape=(total,)
    )
    m = 0
    last_u = last_v = -1
    for u, v, w in heapq.merge(*(_iter_run(a, block) for a in mapped)):
        if u == last_u and v == last_v:
            if w < out[m - 1]["w"]:
                out[m - 1]["w"] = w
        else:
            out[m] = (u, v, w)
            m += 1
            last_u, last_v = u, v
    return out, m


def _chunked_cumsum(counts: np.ndarray, out: np.ndarray, block: int) -> None:
    """``out[i] = sum(counts[:i])`` with ``out[0] = 0``, block at a time."""
    out[0] = 0
    running = 0
    for i in range(0, len(counts), block):
        part = np.cumsum(counts[i : i + block], dtype=np.int64)
        out[i + 1 : i + 1 + len(part)] = running + part
        running += int(part[-1]) if len(part) else 0


def _sort_adjacency(
    vertex_start: np.ndarray,
    edge_target: np.ndarray,
    edge_weight: np.ndarray,
    block: int,
) -> None:
    """Sort each adjacency list by target, a bounded span at a time.

    Rows are already grouped (CSR invariant); this orders *within* rows
    so the layout is byte-identical to ``GraphBuilder``'s global
    ``lexsort((dst, src))``.
    """
    n = len(vertex_start) - 1
    a = 0
    while a < n:
        b = a + 1
        while b < n and vertex_start[b + 1] - vertex_start[a] <= block:
            b += 1
        lo, hi = int(vertex_start[a]), int(vertex_start[b])
        if hi > lo:
            counts = np.diff(vertex_start[a : b + 1]).astype(np.int64)
            rows = np.repeat(np.arange(a, b, dtype=np.int64), counts)
            targets = np.asarray(edge_target[lo:hi])
            order = np.lexsort((targets, rows))
            edge_target[lo:hi] = targets[order]
            edge_weight[lo:hi] = np.asarray(edge_weight[lo:hi])[order]
        a = b


def _fill_csr(
    n: int,
    arcs: np.ndarray,
    m: int,
    tmp: Path,
    tag: str,
    block: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counting-sort ``m`` sorted (u < v) arcs into CSR memmaps."""
    deg = np.zeros(n + 1, dtype=np.int64)
    for i in range(0, m, block):
        chunk = arcs[i : min(i + block, m)]
        np.add.at(deg, np.asarray(chunk["u"]) + 1, 1)
        np.add.at(deg, np.asarray(chunk["v"]) + 1, 1)
    vertex_start = np.lib.format.open_memmap(
        tmp / f"vertex_start{tag}.npy", mode="w+", dtype=np.int64, shape=(n + 1,)
    )
    _chunked_cumsum(deg[1:], vertex_start, block)
    cursor = np.asarray(vertex_start[:-1]).copy()
    edge_target = np.lib.format.open_memmap(
        tmp / f"edge_target{tag}.npy", mode="w+", dtype=np.int32, shape=(2 * m,)
    )
    edge_weight = np.lib.format.open_memmap(
        tmp / f"edge_weight{tag}.npy", mode="w+", dtype=np.float64, shape=(2 * m,)
    )
    for i in range(0, m, block):
        chunk = arcs[i : min(i + block, m)]
        cw = np.asarray(chunk["w"])
        for src, dst in (
            (np.asarray(chunk["u"]), np.asarray(chunk["v"])),
            (np.asarray(chunk["v"]), np.asarray(chunk["u"])),
        ):
            order = np.argsort(src, kind="stable")
            s, d, w = src[order], dst[order], cw[order]
            uniq, first, counts = np.unique(
                s, return_index=True, return_counts=True
            )
            within = np.arange(len(s), dtype=np.int64) - np.repeat(first, counts)
            pos = cursor[s] + within
            edge_target[pos] = d
            edge_weight[pos] = w
            cursor[uniq] += counts
    _sort_adjacency(vertex_start, edge_target, edge_weight, block)
    return vertex_start, edge_target, edge_weight


def _default_coords(n: int, tmp: Path, tag: str, block: int):
    """Coordinate memmaps with ``load_dimacs``'s defaults: (v, 0.0)."""
    x = np.lib.format.open_memmap(
        tmp / f"x{tag}.npy", mode="w+", dtype=np.float64, shape=(n,)
    )
    y = np.lib.format.open_memmap(
        tmp / f"y{tag}.npy", mode="w+", dtype=np.float64, shape=(n,)
    )
    for i in range(0, n, block):
        j = min(n, i + block)
        x[i:j] = np.arange(i, j, dtype=np.float64)
        y[i:j] = 0.0
    return x, y


def _apply_coords(co_path, x: np.ndarray, y: np.ndarray, chunk: int) -> None:
    """Overlay ``.co`` coordinates, chunk-vectorised; unknown ids ignored."""
    n = len(x)
    ids: List[int] = []
    xs: List[float] = []
    ys: List[float] = []

    def flush() -> None:
        if not ids:
            return
        idx = np.asarray(ids, dtype=np.int64)
        ok = (idx >= 0) & (idx < n)
        x[idx[ok]] = np.asarray(xs, dtype=np.float64)[ok]
        y[idx[ok]] = np.asarray(ys, dtype=np.float64)[ok]
        ids.clear()
        xs.clear()
        ys.clear()

    with open_dimacs(co_path) as stream:
        for line in stream:
            parts = line.split()
            if not parts or parts[0] != "v":
                continue
            ids.append(int(parts[1]) - 1)
            xs.append(float(parts[2]))
            ys.append(float(parts[3]))
            if len(ids) >= chunk:
                flush()
    flush()


def _largest_component_mask(
    vertex_start: np.ndarray, edge_target: np.ndarray, edge_weight: np.ndarray
) -> Tuple[Optional[np.ndarray], int]:
    """``(keep_mask, n_components)``; mask is None when already connected."""
    n = len(vertex_start) - 1
    matrix = csr_matrix(
        (np.asarray(edge_weight), np.asarray(edge_target), np.asarray(vertex_start)),
        shape=(n, n),
    )
    n_components, labels = connected_components(matrix, directed=False)
    if n_components <= 1:
        return None, n_components
    largest = int(np.argmax(np.bincount(labels)))
    return labels == largest, n_components


def _restrict_arcs(
    arcs: np.ndarray,
    m: int,
    keep: np.ndarray,
    remap: np.ndarray,
    tmp: Path,
    block: int,
) -> Tuple[np.ndarray, int]:
    """Filter + renumber the sorted arc stream to the kept component.

    The remap is monotonic (a prefix sum over ``keep``), so the output
    stays sorted by (u, v) and feeds :func:`_fill_csr` directly.
    """
    out = np.lib.format.open_memmap(
        tmp / "arcs-lcc.npy", mode="w+", dtype=ARC_DTYPE, shape=(max(m, 1),)
    )
    m2 = 0
    for i in range(0, m, block):
        chunk = arcs[i : min(i + block, m)]
        u, v = np.asarray(chunk["u"]), np.asarray(chunk["v"])
        ok = keep[u] & keep[v]
        rows = int(ok.sum())
        if rows == 0:
            continue
        sel = out[m2 : m2 + rows]
        sel["u"] = remap[u[ok]]
        sel["v"] = remap[v[ok]]
        sel["w"] = np.asarray(chunk["w"])[ok]
        m2 += rows
    return out, m2


def _compress(src: np.ndarray, keep: np.ndarray, out: np.ndarray, block: int) -> None:
    """``out = src[keep]`` without materialising either side at once."""
    pos = 0
    for i in range(0, len(src), block):
        part = np.asarray(src[i : i + block])[keep[i : i + block]]
        out[pos : pos + len(part)] = part
        pos += len(part)


def ingest_dimacs(
    gr_path,
    co_path=None,
    store=None,
    *,
    name: Optional[str] = None,
    memory_budget_mb: float = 512.0,
    restrict_to_lcc: bool = True,
    tmp_dir=None,
) -> IngestReport:
    """Stream a DIMACS graph into a store ``graph`` artifact.

    ``store`` is an :class:`repro.store.IndexStore`.  ``memory_budget_mb``
    bounds the ingest's own working set: parse chunks, spill-run sizes
    and every vectorised block derive from it.  Scratch runs live in a
    temporary directory (``tmp_dir`` or the system default) and are
    removed on return.

    Returns an :class:`IngestReport`; load the result with
    ``Graph.from_store_mmap(store, report.key)``.
    """
    if store is None:
        raise ValueError("ingest_dimacs requires a store to write into")
    started = time.perf_counter()
    chunk = _chunk_rows(memory_budget_mb)
    block = _block_rows(memory_budget_mb)
    tmp = Path(tempfile.mkdtemp(prefix="repro-ingest-", dir=tmp_dir))
    try:
        n, arcs_read, runs = _parse_arcs(gr_path, tmp, chunk)
        if not runs:
            raise ValueError(f"no arcs found in {gr_path}")
        arcs, m = _merge_runs(runs, tmp, block)
        vertex_start, edge_target, edge_weight = _fill_csr(
            n, arcs, m, tmp, "", block
        )
        x, y = _default_coords(n, tmp, "", block)
        if co_path is not None:
            _apply_coords(co_path, x, y, chunk)
        components_dropped = 0
        if restrict_to_lcc:
            keep, n_components = _largest_component_mask(
                vertex_start, edge_target, edge_weight
            )
            if keep is not None:
                components_dropped = n_components - 1
                remap = np.cumsum(keep, dtype=np.int64) - 1
                arcs, m = _restrict_arcs(arcs, m, keep, remap, tmp, block)
                n2 = int(keep.sum())
                vertex_start, edge_target, edge_weight = _fill_csr(
                    n2, arcs, m, tmp, "-lcc", block
                )
                x2, y2 = _default_coords(n2, tmp, "-lcc", block)
                _compress(x, keep, x2, block)
                _compress(y, keep, y2, block)
                x, y, n = x2, y2, n2
        graph = Graph(
            vertex_start,
            edge_target,
            edge_weight,
            x,
            y,
            name=name or Path(str(gr_path)).name,
            weight_kind="distance",
        )
        from repro.store.artifacts import save_graph

        info = save_graph(store, graph)
        return IngestReport(
            key=info.key,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            arcs_read=arcs_read,
            runs_spilled=len(runs),
            restricted_to_lcc=restrict_to_lcc,
            components_dropped=components_dropped,
            ingest_time_s=time.perf_counter() - started,
            artifact_nbytes=info.nbytes,
            artifact_mapped_nbytes=info.mapped_nbytes,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
