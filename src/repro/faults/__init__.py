"""Seeded, deterministic fault injection for the regional simulation.

The subsystem's parts:

- :class:`~repro.faults.config.FaultConfig` — hazard rates and recovery
  knobs, one frozen dataclass;
- :class:`~repro.faults.injector.FaultInjector` — schedules host failures
  from a Poisson hazard and draws victims/repair times;
- :class:`~repro.faults.migration.MigrationFaultModel` — aborts a seeded
  fraction of live migrations mid-precopy;
- :class:`~repro.faults.telemetry.TelemetryFaultModel` — scrape gaps and
  stale-exporter injection for the metric pipeline;
- :mod:`repro.faults.domains` — correlated failure domains: AZ/rack-scoped
  outages and :class:`~repro.faults.domains.ScrapePartition`, the
  exporter↔store partition that blackholes a whole domain's scrapes;
- :class:`~repro.faults.evacuation.EvacuationManager` — retries stranded
  VMs through the scheduler with backoff, dead-lettering the unplaceable;
- :mod:`repro.faults.crashpoints` — control-plane process death at named
  barriers (:class:`~repro.faults.crashpoints.CrashInjector`) and
  byte-level journal corruption.  Imported separately because it
  depends on :mod:`repro.recovery`, which would cycle back through this
  package.

Everything reports into one :class:`~repro.faults.report.FaultReport`,
whose JSON rendering is byte-stable per seed.  A fault scenario is a
:class:`~repro.config.ScenarioSpec` with a ``faults`` section; ``repro
faults``, the example and the ``determinism_faults`` check of ``repro
verify`` all run one.
"""

from repro.faults.config import FaultConfig
from repro.faults.domains import ScrapePartition, domain_ids, domain_members
from repro.faults.evacuation import EvacuationManager
from repro.faults.injector import FaultInjector
from repro.faults.migration import AbortedMigration, MigrationFaultModel
from repro.faults.report import DeadLetter, FaultReport
from repro.faults.telemetry import TelemetryFaultModel

__all__ = [
    "AbortedMigration",
    "DeadLetter",
    "EvacuationManager",
    "FaultConfig",
    "FaultInjector",
    "FaultReport",
    "MigrationFaultModel",
    "ScrapePartition",
    "TelemetryFaultModel",
    "domain_ids",
    "domain_members",
]
