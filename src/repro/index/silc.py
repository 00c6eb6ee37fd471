"""SILC: Spatially Induced Linkage Cognizance (Sankaranarayanan et al.).

For every source vertex s, SILC colours each other vertex t by the *first
hop* of a shortest path from s to t and compresses the colouring into a
region quadtree (Section 3.3).  Distance Browsing additionally stores, per
quadtree block, the min/max ratio of network to Euclidean distance
(lambda-/lambda+), from which a [lower, upper] network-distance interval
for any target is derived and iteratively *refined* by stepping along the
shortest path.

Representation.  Instead of pointer-based quadtrees we store each source's
blocks as sorted arrays over a Morton-ordered vertex permutation — the
"Morton List" the paper's Refine performs a binary search on.  A block is
a maximal Morton-aligned range of uniform colour; lookups are
``searchsorted`` calls.  Construction runs one scipy shortest-path tree
per source and derives first hops by pointer doubling, which is the
pure-Python analogue of the paper's OpenMP parallelisation of the
all-pairs step (the asymptotics — O(|V|^2 log |V|) work, O(|V|^1.5)-ish
space — are unchanged, which is why SILC remains buildable only on the
smaller networks, matching Figure 8).

The degree-2 *chain optimisation* of Appendix A.1.2 is implemented in
:meth:`path_next`/:meth:`refine`: while the current vertex lies on a
chain, the next hop is forced and no quadtree lookup is needed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.pathfinding.bulk import bulk_sssp
from repro.spatial.morton import morton_encode_array
from repro.utils.arrays import concat_ragged, ragged_row
from repro.utils.counters import BUILD_COUNTERS

INF = float("inf")

#: Safety factors keeping interval bounds valid under float rounding.
_LB_SLACK = 1.0 - 1e-12
_UB_SLACK = 1.0 + 1e-12


class _SourceBlocks:
    """Compressed colour map for one source vertex."""

    __slots__ = (
        "starts",
        "colors",
        "lam_minus",
        "lam_plus",
        "dn_min",
        "dn_max",
        "exceptions",
    )

    def __init__(
        self,
        starts: np.ndarray,
        colors: np.ndarray,
        lam_minus: np.ndarray,
        lam_plus: np.ndarray,
        dn_min: np.ndarray,
        dn_max: np.ndarray,
        exceptions: Optional[Dict[int, int]],
    ) -> None:
        self.starts = starts
        self.colors = colors
        self.lam_minus = lam_minus
        self.lam_plus = lam_plus
        self.dn_min = dn_min
        self.dn_max = dn_max
        self.exceptions = exceptions

    def block_of(self, pos: int) -> int:
        """Index of the block containing Morton position ``pos``."""
        return int(np.searchsorted(self.starts, pos, side="right")) - 1

    def size_bytes(self) -> int:
        total = (
            self.starts.nbytes
            + self.colors.nbytes
            + self.lam_minus.nbytes
            + self.lam_plus.nbytes
            + self.dn_min.nbytes
            + self.dn_max.nbytes
        )
        if self.exceptions:
            total += 24 * len(self.exceptions)
        return total


class SILCIndex:
    """SILC path/interval oracle for all sources.

    Parameters
    ----------
    graph:
        Road network (coordinates required).
    grid_bits:
        Quadtree grid resolution (2^bits per axis).
    batch_size:
        Sources per scipy shortest-path batch during construction.
    """

    name = "silc"

    def __init__(self, graph: Graph, grid_bits: int = 11, batch_size: int = 64) -> None:
        self.graph = graph
        self.grid_bits = grid_bits
        BUILD_COUNTERS.add("build:silc")
        start = time.perf_counter()
        self._build(batch_size)
        self._build_time = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, batch_size: int) -> None:
        graph = self.graph
        n = graph.num_vertices
        grid = (1 << self.grid_bits) - 1
        x0, y0 = float(graph.x.min()), float(graph.y.min())
        spanx = float(graph.x.max()) - x0 or 1.0
        spany = float(graph.y.max()) - y0 or 1.0
        gx = np.clip(
            ((graph.x - x0) / spanx * (grid + 1)).astype(np.int64), 0, grid
        )
        gy = np.clip(
            ((graph.y - y0) / spany * (grid + 1)).astype(np.int64), 0, grid
        )
        codes = morton_encode_array(gx, gy).astype(np.int64)
        self._order = np.argsort(codes, kind="stable")
        self._codes_sorted = codes[self._order]
        self._pos_of = np.empty(n, dtype=np.int64)
        self._pos_of[self._order] = np.arange(n)
        self._degree = np.diff(graph.vertex_start)

        self._sources: List[Optional[_SourceBlocks]] = [None] * n
        xs = graph.x
        ys = graph.y
        for lo in range(0, n, batch_size):
            sources = list(range(lo, min(lo + batch_size, n)))
            dist, pred = bulk_sssp(graph, sources, return_predecessors=True)
            for row, s in enumerate(sources):
                hops = self._first_hops_from_pred(s, pred[row])
                eu = np.hypot(xs - xs[s], ys - ys[s])
                self._sources[s] = self._compress(s, hops, dist[row], eu)

    @staticmethod
    def _first_hops_from_pred(source: int, pred: np.ndarray) -> np.ndarray:
        """First hop per target via pointer doubling on the pred tree."""
        n = len(pred)
        nxt = np.arange(n, dtype=np.int64)
        valid = pred >= 0
        # nxt[t] = t when pred[t] == source (t is its own first hop) or t
        # is the source / unreachable; else pred[t].
        move = valid & (pred != source)
        nxt[move] = pred[move]
        # Pointer doubling to the fixed point.
        for _ in range(64):
            nxt2 = nxt[nxt]
            if np.array_equal(nxt2, nxt):
                break
            nxt = nxt2
        nxt[source] = source
        nxt[~valid] = -1
        nxt[~valid & (np.arange(n) == source)] = source
        return nxt

    def _compress(
        self, source: int, hops: np.ndarray, dist: np.ndarray, eu: np.ndarray
    ) -> _SourceBlocks:
        order = self._order
        colors = hops[order].copy()
        dn = dist[order]
        de = eu[order]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(de > 0, dn / de, np.inf)
        # The source never splits blocks: give it its neighbour's colour.
        spos = int(self._pos_of[source])
        ratio_for_agg = ratio.copy()
        ratio_for_agg[spos] = np.nan
        if spos > 0:
            colors[spos] = colors[spos - 1]
        elif len(colors) > 1:
            colors[spos] = colors[spos + 1]

        starts: List[int] = []
        out_colors: List[int] = []
        lam_minus: List[float] = []
        lam_plus: List[float] = []
        dn_min: List[float] = []
        dn_max: List[float] = []
        exceptions: Dict[int, int] = {}
        codes = self._codes_sorted
        total_bits = 2 * self.grid_bits

        def emit(i_lo: int, i_hi: int, color: int) -> None:
            starts.append(i_lo)
            out_colors.append(int(color))
            seg_ratio = ratio_for_agg[i_lo:i_hi]
            finite = seg_ratio[np.isfinite(seg_ratio)]
            if len(finite):
                lam_minus.append(float(finite.min()) * _LB_SLACK)
                lam_plus.append(float(finite.max()) * _UB_SLACK)
            else:
                lam_minus.append(0.0)
                lam_plus.append(INF)
            seg_dn = dn[i_lo:i_hi]
            dn_min.append(float(seg_dn.min()) * _LB_SLACK)
            dn_max.append(float(seg_dn.max()) * _UB_SLACK)

        def build(code_lo: int, size_bits: int, i_lo: int, i_hi: int) -> None:
            if i_lo >= i_hi:
                return
            seg = colors[i_lo:i_hi]
            if bool((seg == seg[0]).all()):
                emit(i_lo, i_hi, seg[0])
                return
            if size_bits == 0:
                # Same grid cell, mixed colours: exception map.
                emit(i_lo, i_hi, seg[0])
                for i in range(i_lo, i_hi):
                    if colors[i] != seg[0]:
                        exceptions[int(order[i])] = int(colors[i])
                return
            quarter = 1 << (2 * (size_bits - 1))
            j_lo = i_lo
            for q in range(4):
                hi_code = code_lo + (q + 1) * quarter
                j_hi = int(
                    np.searchsorted(codes[j_lo:i_hi], hi_code, side="left")
                ) + j_lo
                build(code_lo + q * quarter, size_bits - 1, j_lo, j_hi)
                j_lo = j_hi

        build(0, self.grid_bits, 0, len(colors))
        return _SourceBlocks(
            np.asarray(starts, dtype=np.int64),
            np.asarray(out_colors, dtype=np.int64),
            np.asarray(lam_minus),
            np.asarray(lam_plus),
            np.asarray(dn_min),
            np.asarray(dn_max),
            exceptions or None,
        )

    # ------------------------------------------------------------------
    # Path oracle
    # ------------------------------------------------------------------
    def first_hop(self, source: int, target: int) -> int:
        """First vertex after ``source`` on a shortest path to ``target``.

        One binary search on the source's Morton list (O(log |V|)) — the
        cost Refine pays per step.
        """
        if source == target:
            return source
        blocks = self._sources[source]
        if blocks.exceptions is not None:
            hit = blocks.exceptions.get(int(target))
            if hit is not None:
                return hit
        pos = int(self._pos_of[target])
        return int(blocks.colors[blocks.block_of(pos)])

    def path_next(
        self, current: int, previous: int, target: int, use_chains: bool
    ) -> Tuple[int, float]:
        """Next vertex after ``current`` on the path to ``target``.

        Returns ``(next_vertex, edge_weight)``.  With ``use_chains`` the
        degree-2 optimisation skips the quadtree lookup when the next hop
        is forced (Appendix A.1.2).
        """
        graph = self.graph
        if use_chains and previous >= 0 and self._degree[current] <= 2:
            targets, weights = graph.neighbor_slice(current)
            for t, w in zip(targets, weights):
                if int(t) != previous:
                    return int(t), float(w)
            return previous, float(weights[0])  # dead end: backtrack
        nxt = self.first_hop(current, target)
        w = graph.edge_weight_between(current, nxt)
        if w is None:
            raise RuntimeError(
                f"SILC first hop {nxt} is not adjacent to {current}"
            )
        return nxt, w

    def path(
        self, source: int, target: int, use_chains: bool = False
    ) -> Tuple[float, List[int]]:
        """Shortest path (distance, vertex list) assembled hop by hop."""
        path = [source]
        total = 0.0
        current, previous = source, -1
        while current != target:
            nxt, w = self.path_next(current, previous, target, use_chains)
            total += w
            path.append(nxt)
            previous, current = current, nxt
        return total, path

    def distance(self, source: int, target: int, use_chains: bool = True) -> float:
        return self.path(source, target, use_chains=use_chains)[0]

    # ------------------------------------------------------------------
    # Distance intervals (Distance Browsing)
    # ------------------------------------------------------------------
    def interval_from(self, vertex: int, target: int) -> Tuple[float, float]:
        """[lower, upper] bounds on d(vertex, target) from vertex's blocks."""
        if vertex == target:
            return 0.0, 0.0
        blocks = self._sources[vertex]
        b = blocks.block_of(int(self._pos_of[target]))
        # np.hypot, not math.hypot: CPython's hypot rounds differently in
        # the last ulp, and the scalar path must agree bit-for-bit with
        # the vectorised :meth:`intervals_from` (the construction-time
        # lambda ratios are np.hypot-based too).
        de = float(
            np.hypot(
                self.graph.x[vertex] - self.graph.x[target],
                self.graph.y[vertex] - self.graph.y[target],
            )
        )
        # fmax/fmin drop a NaN side (an all-infinite-ratio block at zero
        # Euclidean distance makes lam * de = inf * 0 = NaN), falling
        # back to the always-valid per-block network-distance bounds —
        # a NaN key would otherwise reach the priority queues.
        with np.errstate(invalid="ignore"):
            lb = np.fmax(blocks.lam_minus[b] * de, blocks.dn_min[b])
            ub = np.fmin(blocks.lam_plus[b] * de, blocks.dn_max[b])
        return float(lb), float(ub)

    def intervals_from(
        self, vertex: int, targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`interval_from` for a batch of targets.

        One ``searchsorted`` over the Morton list covers the whole batch
        — the form Distance Browsing uses to seed its candidate queue.
        Entry-for-entry identical to the scalar path.
        """
        targets = np.asarray(targets, dtype=np.int64)
        blocks = self._sources[vertex]
        pos = self._pos_of[targets]
        b = np.searchsorted(blocks.starts, pos, side="right") - 1
        de = np.hypot(
            self.graph.x[targets] - self.graph.x[vertex],
            self.graph.y[targets] - self.graph.y[vertex],
        )
        # fmax/fmin, matching the scalar path: a NaN lambda bound (inf * 0
        # at zero Euclidean distance) falls back to the per-block
        # network-distance bounds instead of poisoning the heap keys.
        with np.errstate(invalid="ignore"):
            lb = np.fmax(blocks.lam_minus[b] * de, blocks.dn_min[b])
            ub = np.fmin(blocks.lam_plus[b] * de, blocks.dn_max[b])
        same = targets == vertex
        if same.any():
            lb[same] = 0.0
            ub[same] = 0.0
        return lb, ub

    def refine(
        self,
        vn: int,
        d: float,
        previous: int,
        target: int,
        use_chains: bool = True,
    ) -> Tuple[int, float, int, float, float]:
        """One DisBrw refinement step.

        Given the path walked so far — current vertex ``vn`` at exact
        distance ``d`` from the query — advance one hop (or one chain)
        towards ``target`` and return
        ``(vn', d', previous', lower, upper)`` where the bounds are on the
        *query*-to-target distance.
        """
        nxt, w = self.path_next(vn, previous, target, use_chains)
        d2 = d + w
        prev2 = vn
        if use_chains:
            # Jump along the forced chain: no quadtree consultations.
            while nxt != target and self._degree[nxt] <= 2:
                nxt2, w2 = self.path_next(nxt, prev2, target, True)
                prev2, nxt = nxt, nxt2
                d2 += w2
        if nxt == target:
            return nxt, d2, prev2, d2, d2
        lb, ub = self.interval_from(nxt, target)
        return nxt, d2, prev2, d2 + lb, d2 + ub

    # ------------------------------------------------------------------
    # Region bounds for the Object Hierarchy variant
    # ------------------------------------------------------------------
    def region_bounds(
        self,
        source: int,
        idx_lo: int,
        idx_hi: int,
    ) -> Tuple[float, float]:
        """Bounds on d(source, t) over all t at Morton positions [lo, hi).

        Used by the Object-Hierarchy DisBrw variant: an OH block maps to a
        Morton position range; SILC blocks intersecting it contribute
        their interval bounds.  Returns (min lower, max upper).
        """
        blocks = self._sources[source]
        first = blocks.block_of(idx_lo)
        lb_best = INF
        ub_best = 0.0
        b = first
        starts = blocks.starts
        nblocks = len(starts)
        while b < nblocks and (b == first or starts[b] < idx_hi):
            seg_lo = max(int(starts[b]), idx_lo)
            seg_hi = min(
                int(starts[b + 1]) if b + 1 < nblocks else len(self._order), idx_hi
            )
            if seg_lo < seg_hi:
                lb_best = min(lb_best, float(blocks.dn_min[b]))
                ub_best = max(ub_best, float(blocks.dn_max[b]))
            b += 1
        if lb_best is INF:
            return 0.0, INF
        return lb_best, ub_best

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def morton_position(self, vertex: int) -> int:
        return int(self._pos_of[vertex])

    def build_time(self) -> float:
        return self._build_time

    def size_bytes(self) -> int:
        total = self._order.nbytes + self._codes_sorted.nbytes + self._pos_of.nbytes
        for blocks in self._sources:
            if blocks is not None:
                total += blocks.size_bytes()
        return total

    def average_blocks(self) -> float:
        return float(
            np.mean([len(b.starts) for b in self._sources if b is not None])
        )

    # ------------------------------------------------------------------
    # Serialization (persistent index store)
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten all per-source Morton-list blocks into numpy arrays.

        Per-source block arrays concatenate with one shared offsets array
        (all six block attributes have the same per-source lengths);
        mixed-cell exception maps flatten to (source, target, color)
        triplets.
        """
        sources = self._sources
        starts, off = concat_ragged([b.starts for b in sources], np.int64)
        colors, _ = concat_ragged([b.colors for b in sources], np.int64)
        lam_minus, _ = concat_ragged([b.lam_minus for b in sources], np.float64)
        lam_plus, _ = concat_ragged([b.lam_plus for b in sources], np.float64)
        dn_min, _ = concat_ragged([b.dn_min for b in sources], np.float64)
        dn_max, _ = concat_ragged([b.dn_max for b in sources], np.float64)
        exc_src: List[int] = []
        exc_target: List[int] = []
        exc_color: List[int] = []
        for s, b in enumerate(sources):
            if b.exceptions:
                for t, c in b.exceptions.items():
                    exc_src.append(s)
                    exc_target.append(int(t))
                    exc_color.append(int(c))
        return {
            "order": self._order,
            "codes_sorted": self._codes_sorted,
            "pos_of": self._pos_of,
            "block_starts": starts,
            "block_off": off,
            "block_colors": colors,
            "block_lam_minus": lam_minus,
            "block_lam_plus": lam_plus,
            "block_dn_min": dn_min,
            "block_dn_max": dn_max,
            "exc_src": np.asarray(exc_src, dtype=np.int64),
            "exc_target": np.asarray(exc_target, dtype=np.int64),
            "exc_color": np.asarray(exc_color, dtype=np.int64),
            "grid_bits": np.asarray(self.grid_bits),
            "build_time": np.asarray(self._build_time),
        }

    @classmethod
    def from_arrays(cls, graph: Graph, arrays: Dict[str, np.ndarray]) -> "SILCIndex":
        """Rehydrate without re-running the all-pairs preprocessing."""
        self = cls.__new__(cls)
        self.graph = graph
        self.grid_bits = int(arrays["grid_bits"])
        self._build_time = float(arrays["build_time"])
        self._order = np.asarray(arrays["order"], dtype=np.int64)
        self._codes_sorted = np.asarray(arrays["codes_sorted"], dtype=np.int64)
        self._pos_of = np.asarray(arrays["pos_of"], dtype=np.int64)
        self._degree = np.diff(graph.vertex_start)

        exceptions: Dict[int, Dict[int, int]] = {}
        for s, t, c in zip(
            arrays["exc_src"], arrays["exc_target"], arrays["exc_color"]
        ):
            exceptions.setdefault(int(s), {})[int(t)] = int(c)

        off = arrays["block_off"]
        n = graph.num_vertices
        self._sources = []
        for s in range(n):
            self._sources.append(
                _SourceBlocks(
                    ragged_row(arrays["block_starts"], off, s),
                    ragged_row(arrays["block_colors"], off, s),
                    ragged_row(arrays["block_lam_minus"], off, s),
                    ragged_row(arrays["block_lam_plus"], off, s),
                    ragged_row(arrays["block_dn_min"], off, s),
                    ragged_row(arrays["block_dn_max"], off, s),
                    exceptions.get(s),
                )
            )
        return self
