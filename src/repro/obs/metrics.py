"""Lock-cheap metrics registry: counters, gauges and latency histograms.

The engine, server, store and update paths all produce measurements —
per-query wall times, settled-vertex counts, cache outcomes, index build
times — but before this module each spoke its own dialect (``KNNResult.
counters`` dicts, ``KNNServer.stats()``, ``BUILD_COUNTERS``).  The
registry gives them one substrate:

* **Counter** — monotone event count (``knn_queries_total``).
* **Gauge** — point-in-time value (``server_queue_depth``).
* **Histogram** — fixed-bucket latency distribution from which p50 /
  p95 / p99 / max are derivable *without storing samples*: observations
  land in log-spaced buckets, quantiles interpolate inside the bucket
  that crosses the target rank, and the exact max/min are tracked on
  the side.

Every metric family supports per-label children (``method="ine"``,
``kind="gtree"``, ``outcome="hit"``), created on first use.  The
registry snapshots to plain dicts (JSON-ready), diffs two snapshots into
a windowed view (``delta``), resets, and renders the Prometheus text
exposition format — all zero-dependency.

Cost model: hot loops never touch the registry.  They keep recording
into the per-query :class:`~repro.utils.counters.Counters` bag exactly
as before, and the engine flushes that bag into labeled registry
counters *once per query* — a handful of dict lookups and lock-guarded
adds, measured as the repo benchmark's ``obs.overhead_share``.
Setting :attr:`MetricsRegistry.enabled` to ``False`` skips even that
(the kill switch that measurement's baseline uses).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram buckets (seconds): log-spaced from 10us to 10s,
#: dense in the sub-millisecond range the paper's queries live in.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for small cardinalities (batch sizes, repair counts).
COUNT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(items: LabelItems) -> str:
    return ",".join(f"{k}={v}" for k, v in items)


class Counter:
    """Monotone event counter (one labeled child of a family)."""

    kind = "counter"
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> float:
        return self._value


class Gauge:
    """Point-in-time value; ``set`` replaces, ``inc``/``dec`` adjust."""

    kind = "gauge"
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self.set(0.0)

    def snapshot(self) -> float:
        return self._value


def quantile_from_buckets(
    bounds: Sequence[float],
    counts: Sequence[int],
    q: float,
    maximum: float,
    minimum: float,
) -> float:
    """Derive the ``q``-quantile from fixed-bucket counts.

    Walks the cumulative counts to the bucket that crosses rank
    ``q * total`` and interpolates linearly inside it, clamping the
    bucket edges to the exactly tracked ``minimum``/``maximum`` so tiny
    sample counts do not report a bucket boundary no sample ever hit.
    The overflow bucket (beyond the last bound) reports ``maximum``.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cum = 0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        prev_cum = cum
        cum += c
        if cum >= target:
            if i >= len(bounds):  # overflow bucket
                return maximum
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i]
            lo = max(lo, minimum)
            hi = min(hi, maximum)
            if hi <= lo:
                return hi
            frac = (target - prev_cum) / c
            return lo + frac * (hi - lo)
    return maximum


class Histogram:
    """Fixed-bucket distribution; quantiles derivable without samples."""

    kind = "histogram"
    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count", "_max", "_min")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS_S) -> None:
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be strictly increasing")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # + overflow bucket
        self._sum = 0.0
        self._count = 0
        self._max = -math.inf
        self._min = math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value
            if value < self._min:
                self._min = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        with self._lock:
            return quantile_from_buckets(
                self.bounds, self._counts, q, self.max, self.min
            )

    def bucket_counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0
            self._max = -math.inf
            self._min = math.inf

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            total, s = self._count, self._sum
            mx = self._max if total else 0.0
            mn = self._min if total else 0.0
        return {
            "count": total,
            "sum": s,
            "mean": (s / total) if total else 0.0,
            "min": mn,
            "max": mx,
            "p50": quantile_from_buckets(self.bounds, counts, 0.50, mx, mn),
            "p95": quantile_from_buckets(self.bounds, counts, 0.95, mx, mn),
            "p99": quantile_from_buckets(self.bounds, counts, 0.99, mx, mn),
            "buckets": counts,
            "bounds": list(self.bounds),
        }


class _Family:
    """One named metric family holding its labeled children."""

    __slots__ = ("name", "kind", "help", "buckets", "children", "_lock")

    def __init__(self, name: str, kind: str, help: str = "",
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.children: Dict[LabelItems, object] = {}
        self._lock = threading.Lock()

    def child(self, items: LabelItems):
        metric = self.children.get(items)
        if metric is None:
            with self._lock:
                metric = self.children.get(items)
                if metric is None:
                    if self.kind == "counter":
                        metric = Counter()
                    elif self.kind == "gauge":
                        metric = Gauge()
                    else:
                        metric = Histogram(self.buckets or LATENCY_BUCKETS_S)
                    self.children[items] = metric
        return metric


class MetricsRegistry:
    """Named metric families with labeled children.

    ``enabled`` is the process-wide kill switch callers check before
    flushing into the registry; the registry itself never silently
    drops writes, so direct ``counter(...).inc()`` always lands.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _family(self, name: str, kind: str, help: str,
                buckets: Optional[Sequence[float]] = None) -> _Family:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = _Family(name, kind, help, buckets)
                    self._families[name] = family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}"
            )
        return family

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._family(name, "counter", help).child(_label_items(labels))

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._family(name, "gauge", help).child(_label_items(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels,
    ) -> Histogram:
        return self._family(name, "histogram", help, buckets).child(
            _label_items(labels)
        )

    def families(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    # ------------------------------------------------------------------
    # Snapshot / delta / reset
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All metrics as plain (JSON-ready) dicts, keyed name -> series."""
        out: Dict[str, Dict[str, object]] = {}
        with self._lock:
            families = list(self._families.values())
        for family in families:
            series = {
                _label_str(items): metric.snapshot()
                for items, metric in sorted(family.children.items())
            }
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def delta(self, prev: Dict[str, Dict[str, object]]) -> Dict[str, Dict[str, object]]:
        """Current snapshot minus ``prev`` (a prior :meth:`snapshot`).

        Counters subtract; histogram bucket counts/sums subtract and the
        windowed quantiles are re-derived from the diffed buckets (the
        window's max/min are unknowable without samples, so the current
        extrema bound the interpolation).  Gauges keep current values.
        """
        current = self.snapshot()
        out: Dict[str, Dict[str, object]] = {}
        for name, fam in current.items():
            prev_series = prev.get(name, {}).get("series", {})
            series: Dict[str, object] = {}
            for label, snap in fam["series"].items():
                before = prev_series.get(label)
                if fam["kind"] == "counter":
                    series[label] = snap - (before or 0.0)
                elif fam["kind"] == "gauge":
                    series[label] = snap
                else:
                    series[label] = _diff_histogram(snap, before)
            out[name] = {"kind": fam["kind"], "help": fam["help"],
                         "series": series}
        return out

    def reset(self) -> None:
        """Zero every metric (families and children survive)."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            for metric in list(family.children.values()):
                metric.reset()

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------
    def to_prometheus(self, prefix: str = "repro_") -> str:
        """Render every metric in the Prometheus text exposition format."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            name = prefix + family.name
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for items, metric in sorted(family.children.items()):
                if family.kind == "histogram":
                    lines.extend(_prom_histogram(name, items, metric))
                else:
                    lines.append(
                        f"{name}{_prom_labels(items)} "
                        f"{_prom_value(metric.value)}"
                    )
        return "\n".join(lines) + "\n"


def _diff_histogram(snap: Dict[str, object], before: Optional[Dict[str, object]]):
    if before is None:
        return dict(snap)
    bounds = snap["bounds"]
    counts = [a - b for a, b in zip(snap["buckets"], before["buckets"])]
    count = snap["count"] - before["count"]
    s = snap["sum"] - before["sum"]
    mx, mn = snap["max"], snap["min"]
    return {
        "count": count,
        "sum": s,
        "mean": (s / count) if count else 0.0,
        "min": mn,
        "max": mx,
        "p50": quantile_from_buckets(bounds, counts, 0.50, mx, mn),
        "p95": quantile_from_buckets(bounds, counts, 0.95, mx, mn),
        "p99": quantile_from_buckets(bounds, counts, 0.99, mx, mn),
        "buckets": counts,
        "bounds": list(bounds),
    }


def _prom_escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_labels(items: LabelItems, extra: str = "") -> str:
    parts = [f'{k}="{_prom_escape(v)}"' for k, v in items]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _prom_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _prom_histogram(name: str, items: LabelItems, metric: Histogram) -> List[str]:
    lines: List[str] = []
    counts = metric.bucket_counts()
    cum = 0
    for bound, c in zip(metric.bounds, counts):
        cum += c
        le_label = 'le="' + _prom_value(bound) + '"'
        lines.append(f"{name}_bucket{_prom_labels(items, le_label)} {cum}")
    cum += counts[-1]
    inf_label = 'le="+Inf"'
    lines.append(f"{name}_bucket{_prom_labels(items, inf_label)} {cum}")
    lines.append(f"{name}_sum{_prom_labels(items)} {_prom_value(metric.sum)}")
    lines.append(f"{name}_count{_prom_labels(items)} {metric.count}")
    return lines


#: Process-wide default registry; the engine, server and store flush
#: into it, and the server's ``metrics`` command reads it back out.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
