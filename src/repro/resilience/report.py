"""The ResilienceReport: how the control plane defended itself.

Mirrors :class:`~repro.faults.report.FaultReport`: one dataclass holding
every counter the resilience services produce, with a deterministic
``to_dict`` (sorted collections, rounded floats) so two seeded runs hash
identically — the ``determinism_chaos`` check of ``repro verify`` relies
on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.reporting import ReportBase


@dataclass(frozen=True)
class InvariantViolation:
    """One machine-checked invariant that did not hold."""

    invariant: str
    subject: str
    detail: str
    time: float

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "subject": self.subject,
            "detail": self.detail,
            "time": round(self.time, 6),
        }


class InvariantViolationError(AssertionError):
    """Raised in fail-fast mode; carries the structured violations."""

    def __init__(self, violations: list[InvariantViolation]) -> None:
        self.violations = violations
        lines = [f"{len(violations)} invariant violation(s):"]
        lines += [
            f"  [{v.invariant}] {v.subject}: {v.detail} (t={v.time:.0f})"
            for v in violations[:10]
        ]
        super().__init__("\n".join(lines))


@dataclass
class ResilienceReport(ReportBase):
    """Aggregated outcome of the resilience layer over one run."""

    seed: int = 0
    # -- host health -------------------------------------------------------
    heartbeats: int = 0
    transitions_observed: int = 0
    flaps_detected: int = 0
    quarantines: int = 0
    re_quarantines: int = 0
    readmissions: int = 0
    probations_passed: int = 0
    probation_failures: int = 0
    bb_quarantines: int = 0
    quarantined_nodes: list[str] = field(default_factory=list)
    # -- admission control -------------------------------------------------
    requests_submitted: int = 0
    requests_admitted: int = 0
    shed_rate_limit: int = 0
    shed_breaker: int = 0
    retries_scheduled: int = 0
    deadline_exceeded: int = 0
    breaker_opens: int = 0
    bb_breaker_opens: int = 0
    # -- reconciliation ----------------------------------------------------
    reconcile_runs: int = 0
    reconcile_clean_runs: int = 0
    orphaned_allocations_released: int = 0
    missing_allocations_claimed: int = 0
    mishomed_allocations_moved: int = 0
    capacity_drift_repairs: int = 0
    index_drift_invalidations: int = 0
    unrepairable_drift: int = 0
    # -- invariants --------------------------------------------------------
    invariant_checks: int = 0
    violations: list[InvariantViolation] = field(default_factory=list)

    def record_violation(self, violation: InvariantViolation) -> None:
        self.violations.append(violation)

    @property
    def total_shed(self) -> int:
        return self.shed_rate_limit + self.shed_breaker

    def to_dict(self) -> dict:
        """Deterministic, JSON-ready view of the report."""
        return {
            "seed": self.seed,
            "health": {
                "heartbeats": self.heartbeats,
                "transitions_observed": self.transitions_observed,
                "flaps_detected": self.flaps_detected,
                "quarantines": self.quarantines,
                "re_quarantines": self.re_quarantines,
                "readmissions": self.readmissions,
                "probations_passed": self.probations_passed,
                "probation_failures": self.probation_failures,
                "bb_quarantines": self.bb_quarantines,
                "quarantined_nodes": sorted(set(self.quarantined_nodes)),
            },
            "admission": {
                "requests_submitted": self.requests_submitted,
                "requests_admitted": self.requests_admitted,
                "shed_rate_limit": self.shed_rate_limit,
                "shed_breaker": self.shed_breaker,
                "total_shed": self.total_shed,
                "retries_scheduled": self.retries_scheduled,
                "deadline_exceeded": self.deadline_exceeded,
                "breaker_opens": self.breaker_opens,
                "bb_breaker_opens": self.bb_breaker_opens,
            },
            "reconciler": {
                "runs": self.reconcile_runs,
                "clean_runs": self.reconcile_clean_runs,
                "orphaned_allocations_released": self.orphaned_allocations_released,
                "missing_allocations_claimed": self.missing_allocations_claimed,
                "mishomed_allocations_moved": self.mishomed_allocations_moved,
                "capacity_drift_repairs": self.capacity_drift_repairs,
                "index_drift_invalidations": self.index_drift_invalidations,
                "unrepairable_drift": self.unrepairable_drift,
            },
            "invariants": {
                "checks": self.invariant_checks,
                "violation_count": len(self.violations),
                "violations": [
                    v.to_dict()
                    for v in sorted(
                        self.violations,
                        key=lambda v: (v.time, v.invariant, v.subject),
                    )
                ],
            },
        }

    def render(self) -> str:
        """Human-oriented one-screen summary."""
        lines = [
            "Resilience report",
            f"  health       {self.heartbeats} heartbeats, "
            f"{self.flaps_detected} flaps detected, "
            f"{self.quarantines} quarantines "
            f"({self.re_quarantines} repeat), {self.readmissions} readmissions, "
            f"{self.bb_quarantines} BB quarantines",
            f"  admission    {self.requests_admitted}/{self.requests_submitted} "
            f"admitted, shed {self.shed_rate_limit} (rate) + "
            f"{self.shed_breaker} (breaker), {self.retries_scheduled} retries, "
            f"{self.deadline_exceeded} deadline-expired",
            f"  breakers     {self.breaker_opens} global opens, "
            f"{self.bb_breaker_opens} per-BB opens",
            f"  reconciler   {self.reconcile_runs} runs "
            f"({self.reconcile_clean_runs} clean): "
            f"{self.orphaned_allocations_released} orphans released, "
            f"{self.missing_allocations_claimed} missing claimed, "
            f"{self.mishomed_allocations_moved} mishomed moved, "
            f"{self.capacity_drift_repairs} capacity repairs",
            f"  invariants   {self.invariant_checks} checks, "
            f"{len(self.violations)} violations",
        ]
        for v in sorted(
            self.violations, key=lambda v: (v.time, v.invariant, v.subject)
        )[:10]:
            lines.append(f"    [{v.invariant}] {v.subject}: {v.detail}")
        return "\n".join(lines)
