"""Resilience layer: fault injection, degradation, retries, supervision.

The serving stack must stay available — and keep returning *exact*
answers — while individual components fail.  This package supplies the
machinery, each piece usable on its own:

* :mod:`repro.resilience.faults` — a deterministic, seeded
  **fault-injection framework**.  Named fault points (``store.load``,
  ``kernel.sssp``, ``worker.die``, ...) are threaded through the store,
  the engine, the kernels and the server behind a default-off
  :class:`FaultPlan`; with no plan installed a fault check is one global
  read.  Seeded nth-call and probability triggers make every chaos run
  replay exactly.
* :mod:`repro.resilience.errors` — the transient-vs-permanent **error
  taxonomy** (:func:`classify`) that drives server retries and engine
  fallback decisions.
* :mod:`repro.resilience.retry` — capped, jittered exponential backoff
  (:class:`RetryPolicy`), seeded for reproducible schedules.
* :mod:`repro.resilience.breaker` — a per-method **circuit breaker**
  (closed → open → half-open with probe requests).
* :mod:`repro.resilience.supervisor` — worker **heartbeats** and a
  periodic :class:`Supervisor` thread that restarts dead or wedged
  workers.
* :mod:`repro.resilience.quarantine` — store-corruption **quarantine**:
  move the bad artifact aside, count it, rebuild.

End-to-end behaviour is gated by ``tests/test_resilience.py::TestChaos``:
under a seeded plan injecting store + kernel faults and a worker kill, the
server must sustain >= 99% non-error completion with zero wrong answers
(degraded responses flagged via ``KNNResult.degraded`` provenance).  See
``docs/resilience.md``.
"""

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)
from repro.resilience.errors import (
    ErrorClass,
    classify,
    is_degradable,
    is_transient,
)
from repro.resilience.faults import (
    FAULT_POINTS,
    FaultError,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    KernelFault,
    WorkerKilled,
    clear_plan,
    current_plan,
    fault_check,
    install_plan,
    plan_installed,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import Heartbeats, Supervisor
from repro.resilience.quarantine import (
    quarantine_artifact,
    quarantine_counts,
    reset_quarantine_counts,
)

__all__ = [
    "FAULT_POINTS",
    "FaultError",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "KernelFault",
    "WorkerKilled",
    "install_plan",
    "clear_plan",
    "current_plan",
    "plan_installed",
    "fault_check",
    "ErrorClass",
    "classify",
    "is_transient",
    "is_degradable",
    "RetryPolicy",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "Heartbeats",
    "Supervisor",
    "quarantine_artifact",
    "quarantine_counts",
    "reset_quarantine_counts",
]
