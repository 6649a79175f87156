"""Control-plane resilience: the defences the fault layer is thrown at.

Four services wire into :class:`~repro.simulation.runner.RegionSimulation`
when ``SimulationConfig.resilience`` is set:

- :class:`~repro.resilience.health.HostHealthService` — heartbeat-driven
  flap detection; oscillating nodes are quarantined (fenced from new
  placements, residents kept) with seeded backoff and probation;
- :class:`~repro.resilience.admission.AdmissionController` — a token
  bucket, per-request deadlines, and circuit breakers (global and
  per building block) in front of the scheduler, shedding load with a
  retry-after instead of queueing it unboundedly;
- :class:`~repro.resilience.reconciler.InventoryReconciler` — a periodic
  audit that diffs placement allocations against ground-truth node
  residency and the scheduler's cached index, repairing drift;
- :class:`~repro.resilience.invariants.InvariantChecker` — a recurring
  sweep asserting the properties that must hold at every instant
  (single placement, non-negative capacity, no untracked ERROR VMs,
  quarantine fences respected), failing fast with a structured report.

Everything reports into one deterministic
:class:`~repro.resilience.report.ResilienceReport`.
:mod:`repro.resilience.chaos` (imported separately to avoid a cycle with
the runner) holds the chaos preset, a
:class:`~repro.config.ScenarioSpec` that ``repro chaos`` and the
``determinism_chaos`` check of ``repro verify`` run, and its summary
report.
"""

from repro.resilience.admission import AdmissionController, AdmissionRejected
from repro.resilience.config import ResilienceConfig
from repro.resilience.health import HealthState, HostHealthService
from repro.resilience.invariants import InvariantChecker
from repro.resilience.reconciler import InventoryReconciler
from repro.resilience.report import (
    InvariantViolation,
    InvariantViolationError,
    ResilienceReport,
)

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "HealthState",
    "HostHealthService",
    "InvariantChecker",
    "InvariantViolation",
    "InvariantViolationError",
    "InventoryReconciler",
    "ResilienceConfig",
    "ResilienceReport",
]
