"""Deterministic, seeded fault injection behind named fault points.

A fault point is a string name at a place where the real world fails:
a store read (``store.load``), a kernel call (``kernel.sssp``), a worker
thread (``worker.die``).  Production code calls :func:`fault_check` at
each point; with no :class:`FaultPlan` installed (the default) that is a
single module-global read — cheap enough to live on the query hot path.

A chaos run installs a plan::

    plan = FaultPlan(seed=7, specs=[
        FaultSpec("store.load", nth_calls=(1,)),          # first load fails
        FaultSpec("kernel.sssp", probability=0.05),       # 5% of calls
        FaultSpec("kernel.sssp", between=(200, 260), probability=1.0),
        FaultSpec("worker.die", nth_calls=(20,)),         # one worker kill
        FaultSpec("worker.stall", nth_calls=(5,), stall_s=0.4),
    ])
    with plan_installed(plan):
        ...

Determinism: each spec draws from its own ``random.Random`` seeded by
``(plan seed, spec index)``, and triggers depend only on the per-point
call ordinal — so given the same sequence of calls at each point the
same calls fault, every run.  Thread interleaving may change *which
thread* observes a given ordinal, never the fault sequence itself.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The named fault points threaded through the stack.
FAULT_POINTS = (
    "store.load",     # IndexStore.get — artifact read / integrity check
    "store.save",     # IndexStore.put — artifact write
    "kernel.sssp",    # whole-frontier SSSP entry (INE / ROAD / Dijkstra hot path)
    "index.build",    # IndexCache build of a road-network index
    "index.repair",   # in-place index repair under a weight delta
    "worker.stall",   # server worker wedges (sleeps) instead of serving
    "worker.die",     # server worker thread dies abruptly
)


class FaultError(RuntimeError):
    """Base class for injected faults (so handlers can opt in/out)."""


class InjectedFault(FaultError):
    """A generic injected failure at a fault point."""


class KernelFault(FaultError):
    """An injected failure inside a query kernel."""


class WorkerKilled(FaultError):
    """An injected abrupt worker-thread death (escapes the worker loop)."""


def _default_error(point: str) -> BaseException:
    """A realistic exception for ``point`` when the spec names none."""
    if point == "worker.die":
        return WorkerKilled(f"injected fault at {point}")
    if point.startswith("kernel."):
        return KernelFault(f"injected fault at {point}")
    if point.startswith("store."):
        # Lazy import: repro.store calls into this module for its own
        # fault checks, so the dependency must not be circular at load.
        from repro.store import StoreCorruption

        return StoreCorruption(f"injected fault at {point}")
    return InjectedFault(f"injected fault at {point}")


@dataclass(frozen=True)
class FaultSpec:
    """When one fault point fires.

    ``nth_calls`` fire deterministically at those 1-based call ordinals.
    ``probability`` fires each call with that chance (from the spec's
    seeded RNG), restricted to the inclusive ``between`` ordinal window
    when given.  ``max_fires`` caps total fires.  A spec with
    ``stall_s > 0`` sleeps instead of raising (a wedged component);
    otherwise it raises ``error()`` — or a realistic default for the
    point (:class:`~repro.store.StoreCorruption` for ``store.*``,
    :class:`KernelFault` for ``kernel.*``, :class:`WorkerKilled` for
    ``worker.die``).
    """

    point: str
    probability: float = 0.0
    nth_calls: Tuple[int, ...] = ()
    between: Optional[Tuple[int, int]] = None
    max_fires: Optional[int] = None
    stall_s: float = 0.0
    error: Optional[Callable[[], BaseException]] = None

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; known points: "
                f"{', '.join(FAULT_POINTS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.stall_s < 0:
            raise ValueError("stall_s must be >= 0")


@dataclass
class _SpecState:
    spec: FaultSpec
    rng: random.Random
    fires: int = 0


class FaultPlan:
    """A seeded set of :class:`FaultSpec` rules, replayable exactly.

    Install with :func:`install_plan` (or the :func:`plan_installed`
    context manager); production fault checks are no-ops until then.
    ``snapshot()`` reports per-point call and fire counts — the server's
    ``health()`` embeds it under ``fault_plan``.
    """

    def __init__(self, seed: int = 0, specs: Sequence[FaultSpec] = ()) -> None:
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        self._by_point: Dict[str, List[_SpecState]] = {}
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        for i, spec in enumerate(self.specs):
            state = _SpecState(
                spec=spec, rng=random.Random(self.seed * 1_000_003 + i)
            )
            self._by_point.setdefault(spec.point, []).append(state)

    def check(self, point: str) -> None:
        """Advance ``point``'s call counter; fire any triggered spec.

        Exactly one action per call: the first triggered spec wins (in
        declaration order).  Stall specs sleep outside the plan lock so
        a wedged component never blocks other fault points.
        """
        states = self._by_point.get(point)
        if states is None:
            return
        action: Optional[_SpecState] = None
        with self._lock:
            n = self._calls.get(point, 0) + 1
            self._calls[point] = n
            for state in states:
                spec = state.spec
                if spec.max_fires is not None and state.fires >= spec.max_fires:
                    continue
                fire = n in spec.nth_calls
                if not fire and spec.probability > 0.0:
                    lo, hi = spec.between or (1, n)
                    if lo <= n <= hi and state.rng.random() < spec.probability:
                        fire = True
                if fire:
                    state.fires += 1
                    self._fired[point] = self._fired.get(point, 0) + 1
                    action = state
                    break
        if action is None:
            return
        from repro import obs

        reg = obs.REGISTRY
        if reg.enabled:
            reg.counter(
                "faults_injected_total",
                "injected faults fired, by fault point",
                point=point,
            ).inc()
        spec = action.spec
        if spec.stall_s > 0:
            time.sleep(spec.stall_s)
            return
        raise spec.error() if spec.error is not None else _default_error(point)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "seed": self.seed,
                "specs": len(self.specs),
                "calls": dict(self._calls),
                "fired": dict(self._fired),
            }


#: The installed plan; ``None`` (the default) makes every check a no-op.
_PLAN: Optional[FaultPlan] = None


def install_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide; returns it for chaining."""
    global _PLAN
    _PLAN = plan
    return plan


def clear_plan() -> None:
    """Remove any installed plan (fault checks become no-ops again)."""
    global _PLAN
    _PLAN = None


def current_plan() -> Optional[FaultPlan]:
    return _PLAN


@contextlib.contextmanager
def plan_installed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope a plan to a ``with`` block, restoring the previous one."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def fault_check(point: str) -> None:
    """The production hook: near-free no-op unless a plan is installed."""
    plan = _PLAN
    if plan is not None:
        plan.check(point)
