"""The chaos scenario: correlated failures against a defended control plane.

A two-AZ region runs the full resilience stack (health/quarantine,
admission control, reconciler, invariant checker) while the fault layer
throws everything at it at once: independent host failures, a flapping
host, AZ- and BB-scoped outages, and exporter↔store scrape partitions.
Two AZs are the minimum honest topology — an AZ outage must hurt without
being able to kill the whole region.

The scenario is one :class:`~repro.config.ScenarioSpec`,
:data:`CHAOS_SPEC`; :class:`ChaosSummary` is its report.  The acceptance
bar (the ``determinism_chaos`` check of ``repro verify``) is that a
seeded run completes with **zero invariant violations** and a
byte-identical summary across repeats.  Kept out of
``repro.resilience.__init__`` because it imports the simulation runner
(which imports the resilience services).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ScenarioSpec
from repro.faults.config import FaultConfig
from repro.reporting import ReportBase
from repro.resilience.config import ResilienceConfig
from repro.simulation.runner import SimulationResult


def default_chaos_faults(seed: int = 24) -> FaultConfig:
    """The full correlated-fault mix: hosts, a flapper, domains, partitions."""
    return FaultConfig(
        seed=seed,
        host_failure_rate_per_day=2.0,
        repair_time_mean_s=3 * 3600.0,
        migration_abort_fraction=0.15,
        scrape_gap_probability=0.02,
        stale_node_probability=0.02,
        az_outage_rate_per_day=1.5,
        bb_outage_rate_per_day=1.0,
        domain_outage_duration_mean_s=1800.0,
        partition_rate_per_day=1.5,
        partition_duration_mean_s=1800.0,
        partition_scope="bb",
        flapping_hosts=1,
        flapping_period_s=1800.0,
        flapping_cycles=5,
    )


def default_chaos_resilience(seed: int = 101) -> ResilienceConfig:
    """Resilience knobs matched to the chaos mix (admission enabled)."""
    return ResilienceConfig(
        seed=seed,
        heartbeat_interval_s=300.0,
        flap_window_s=2 * 3600.0,
        flap_threshold=4,
        quarantine_base_s=2 * 3600.0,
        admission_rate_per_s=0.05,
        admission_burst=10,
        request_deadline_s=2 * 3600.0,
        reconcile_interval_s=3600.0,
        invariant_interval_s=1800.0,
        fail_fast=True,
    )


#: The chaos scenario: two AZs of uniform general-purpose blocks, 80 VMs
#: at the start, the full fault mix against the full resilience stack.
#: ``repro chaos`` and the verify checks ``replace`` fields of it.
CHAOS_SPEC = ScenarioSpec(
    topology="chaos",
    initial_vms=80,
    faults=default_chaos_faults(),
    resilience=default_chaos_resilience(),
)


@dataclass
class ChaosSummary(ReportBase):
    """The chaos digest as a first-class :mod:`repro.reporting` report.

    Wraps one finished run so the chaos CLI's ``--out`` path flows
    through the same byte-stable writer as every other artifact.
    """

    result: SimulationResult

    def to_dict(self) -> dict:
        """Deterministic JSON-ready digest of the run (hashed by CI)."""
        stats = self.result.scheduler_stats
        return {
            "fault_report": self.result.fault_report.to_dict(),
            "resilience_report": self.result.resilience_report.to_dict(),
            "scheduler_stats": {k: stats[k] for k in sorted(stats)},
            "created": self.result.created,
            "deleted": self.result.deleted,
            "rejected": self.result.rejected,
        }

    def render(self) -> str:
        return (
            self.result.resilience_report.render()
            + "\n"
            + self.result.fault_report.render()
        )

