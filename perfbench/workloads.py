"""The benchmark's workloads: inputs from a seed, one measured cycle each.

A *cycle* runs a workload once on fixed inputs: it builds the program's
objects (set-up, timed apart), runs them (the measured wall time), checks
the outputs from outside and records a digest of everything simulated.
Repeating a cycle on the same inputs must give the same digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from layers import instrument_journal, instrument_simulation
from tracing import Tracer


@dataclass
class Cycle:
    """What one cycle measured, checked and produced."""

    wall_s: float = 0.0
    build_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[dict] = field(default_factory=list)
    #: The program's own tallies, summed over the cycle's units.
    tallies: dict[str, float] = field(default_factory=dict)
    #: Named sub-timings of the measured wall time.
    phases: dict[str, float] = field(default_factory=dict)

    def tally(self, key: str, value: float) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + value

    def unit(self, problems: list[str]) -> None:
        """Record one operation (a simulation or a pipeline) and its checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])

    @property
    def digest(self) -> str:
        return _sha(json.dumps(self.digests, sort_keys=True))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    #: Kept out of tuning; confirms a later claim on unseen inputs.
    heldout_seed: int
    #: Modules whose import is part of set-up.
    imports: tuple[str, ...]
    #: Simulated (or synthesised) days per cycle.
    sim_days: float
    #: seed -> the cycle's inputs.
    inputs: Callable[[int], Any]
    #: (inputs, tracer or None, scratch dir) -> Cycle.
    cycle: Callable[[Any, Tracer | None, Path], Cycle]


def _sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def sub_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent program seeds derived from one benchmark seed."""
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _span(tracer: Tracer | None, group: str, fn: Callable, *args: Any) -> Any:
    return fn(*args) if tracer is None else tracer.call(group, fn, *args)


# -- simulation workloads ------------------------------------------------------


def check_simulation(result: Any) -> list[str]:
    """Final-state checks made from outside the simulation.

    Every live VM resides on exactly one node, its placement allocation
    names that node's building block, and no building block's allocations
    exceed its overcommitted inventory.
    """
    problems: list[str] = []
    residence: dict[str, list[Any]] = {}
    for node in result.region.iter_nodes():
        for vm_id in node.vms:
            residence.setdefault(vm_id, []).append(node)
    for vm_id, vm in result.vms.items():
        nodes = residence.pop(vm_id, [])
        if not vm.alive:
            if nodes:
                problems.append(f"{vm_id} is {vm.state.name} but on {nodes[0].node_id}")
            continue
        if len(nodes) != 1:
            problems.append(f"live {vm_id} resides on {len(nodes)} nodes")
            continue
        node = nodes[0]
        if vm.node_id != node.node_id:
            problems.append(f"{vm_id} says {vm.node_id}, resides on {node.node_id}")
        alloc = result.placement.allocation_for(vm_id)
        if alloc is None or alloc.provider_id != node.building_block:
            problems.append(
                f"{vm_id} on BB {node.building_block} has allocation "
                f"{alloc.provider_id if alloc else None}"
            )
    problems.extend(f"unknown VM {vm_id} resides on a node" for vm_id in residence)
    for provider in result.placement.providers():
        for rc in provider.inventory:
            used, cap = provider.used.get(rc, 0.0), provider.capacity(rc)
            if used > cap + 1e-6:
                problems.append(f"{provider.provider_id} {rc} used {used} > {cap}")
    return problems


def simulation_digest(result: Any, journal: Path | None) -> dict:
    """Everything a simulation produced that must repeat for one seed."""
    placements = sorted(
        (vm_id, vm.node_id, vm.state.name) for vm_id, vm in result.vms.items()
    )
    digest = {
        "placements": _sha(json.dumps(placements)),
        "created": result.created,
        "deleted": result.deleted,
        "rejected": result.rejected,
        "resized": result.resized,
        "resize_failed": result.resize_failed,
        "maintenance_windows": result.maintenance_windows,
        "drs_migrations": result.drs_migrations,
        "events_processed": result.events_processed,
        "scheduler_stats": dict(result.scheduler_stats),
        "placement_stats": result.placement.stats(),
        "samples": result.store.sample_count(),
        "store": result.store.content_fingerprint(),
    }
    if result.fault_report is not None:
        report = result.fault_report
        digest["faults"] = [
            report.host_failures,
            report.bb_outages,
            report.migrations_aborted,
            report.stale_node_scrapes,
            report.evacuations_requested,
            report.evacuations_succeeded,
            len(report.dead_letters),
        ]
    if result.resilience_report is not None:
        digest["violations"] = len(result.resilience_report.violations)
    if journal is not None:
        digest["journal"] = _sha(journal.read_bytes())
    return digest


def _simulation_cycle(
    scale: float,
    make_config: Callable[[int], Any],
    seeds: list[int],
    tracer: Tracer | None,
    workdir: Path,
    *,
    journal: bool = False,
) -> Cycle:
    from repro.infrastructure.topology import paper_region_spec
    from repro.recovery import JournalWriter
    from repro.simulation.runner import RegionSimulation

    cycle = Cycle()
    for i, seed in enumerate(seeds):
        t0 = perf_counter()
        config = make_config(seed)
        path = writer = None
        if journal:
            path = workdir / f"sim-{i}.journal"
            path.unlink(missing_ok=True)
            writer = JournalWriter(path, durability="flush")
            if tracer is not None:
                instrument_journal(tracer, writer)
        try:
            sim = RegionSimulation(
                paper_region_spec(scale=scale),
                config,
                journal=writer.append if writer is not None else None,
            )
            cycle.build_s += perf_counter() - t0
            if tracer is not None:
                instrument_simulation(tracer, sim)
            t1 = perf_counter()
            result = sim.run()
            cycle.wall_s += perf_counter() - t1
        finally:
            if writer is not None:
                writer.close()
        problems = check_simulation(result)
        violations = 0
        if result.resilience_report is not None:
            violations = len(result.resilience_report.violations)
            if violations:
                problems.append(f"{violations} invariant violation(s)")
        cycle.unit(problems)
        cycle.digests.append(simulation_digest(result, path))
        cycle.tally("requests", result.scheduler_stats["requests"])
        cycle.tally("samples", result.store.sample_count())
        cycle.tally("events", result.events_processed)
        cycle.tally("drs_migrations", result.drs_migrations)
        cycle.tally("created", result.created)
        cycle.tally("rejected", result.rejected)
        cycle.tally("invariant_violations", violations)
        if result.fault_report is not None:
            cycle.tally("dead_lettered", len(result.fault_report.dead_letters))
        if writer is not None:
            cycle.tally("journal_records", writer.records_written)
            cycle.tally("journal_bytes", path.stat().st_size)
            path.unlink()
    return cycle


#: region-steady: the ``repro bench`` simulation shape.
STEADY_SCALE = 0.02
STEADY_DAYS = 1.2
STEADY_SIMS = 10


def _steady_config(seed: int) -> Any:
    from repro.simulation.runner import SimulationConfig

    return SimulationConfig(
        duration_days=STEADY_DAYS,
        initial_vms=150,
        arrival_rate_per_hour=6.0,
        scrape_interval_s=900.0,
        drs_interval_s=3600.0,
        seed=seed,
    )


def _steady_cycle(seeds: list[int], tracer: Tracer | None, workdir: Path) -> Cycle:
    return _simulation_cycle(STEADY_SCALE, _steady_config, seeds, tracer, workdir)


#: control-plane-churn: a filling region under faults, resilience and a journal.
CHURN_SCALE = 0.1
CHURN_DAYS = 1.25
CHURN_INITIAL_VMS = 1500


def _churn_config(seed: int) -> Any:
    from repro.faults import FaultConfig
    from repro.resilience.config import ResilienceConfig
    from repro.simulation.runner import SimulationConfig

    return SimulationConfig(
        duration_days=CHURN_DAYS,
        initial_vms=CHURN_INITIAL_VMS,
        arrival_rate_per_hour=120.0,
        resize_rate_per_hour=10.0,
        maintenance_rate_per_day=4.0,
        scrape_interval_s=6 * 3600.0,
        drs_interval_s=86_400.0,
        seed=seed,
        faults=FaultConfig(
            seed=seed + 1,
            host_failure_rate_per_day=6.0,
            bb_outage_rate_per_day=0.5,
            az_outage_rate_per_day=0.0,
            migration_abort_fraction=0.1,
            flapping_hosts=1,
            stale_node_probability=0.01,
        ),
        resilience=ResilienceConfig(
            seed=seed + 2,
            admission_rate_per_s=0.05,
            # Covers the initial pool plus an hour of arrivals, so the
            # burst at t=0 is admitted instead of becoming retries.
            admission_burst=CHURN_INITIAL_VMS + 120,
            # Count violations instead of stopping at the first one.
            fail_fast=False,
        ),
    )


def _churn_cycle(seeds: list[int], tracer: Tracer | None, workdir: Path) -> Cycle:
    return _simulation_cycle(
        CHURN_SCALE, _churn_config, seeds, tracer, workdir, journal=True
    )


# -- paper-analysis ------------------------------------------------------------

PAPER_SCALE = 0.1
PAPER_SAMPLING_S = 900
PAPER_DAYS = 30


def _paper_cycle(seeds: list[int], tracer: Tracer | None, workdir: Path) -> Cycle:
    from repro.analysis.report import render_experiments_report
    from repro.datagen import GeneratorConfig, generate_dataset
    from repro.datagen.validation import validate_dataset

    cycle = Cycle()
    t0 = perf_counter()
    config = GeneratorConfig(
        scale=PAPER_SCALE,
        days=PAPER_DAYS,
        sampling_seconds=PAPER_SAMPLING_S,
        seed=seeds[0],
    )
    cycle.build_s = perf_counter() - t0
    appended = tracer.counts["telemetry.samples_appended"] if tracer else 0
    t1 = perf_counter()
    dataset = _span(tracer, "datagen.generate", generate_dataset, config)
    t2 = perf_counter()
    if tracer is not None:
        tracer.counts["datagen.samples_emitted"] += (
            tracer.counts["telemetry.samples_appended"] - appended
        )
    validation = _span(tracer, "datagen.validate", validate_dataset, dataset)
    report = render_experiments_report(dataset)
    t3 = perf_counter()
    cycle.wall_s = t3 - t1
    cycle.phases = {"generate_s": t2 - t1, "analyse_s": t3 - t2}

    cycle.unit([f"calibration target missed: {c}" for c in validation.failures])
    samples = dataset.store.sample_count()
    cycle.tally("samples", samples)
    cycle.tally("calibration_passed", sum(bool(c.passed) for c in validation.checks))
    cycle.tally("calibration_checked", len(validation.checks))
    cycle.digests.append(
        {
            "samples": samples,
            "store": dataset.store.content_fingerprint(),
            "vms": len(dataset.vms),
            "nodes": len(dataset.nodes),
            "calibration": [
                [c.name, bool(c.passed), repr(c.measured)] for c in validation.checks
            ],
            "report": _sha(report),
        }
    )
    return cycle


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="region-steady",
            why=(
                "repro bench's simulation shape: demand evaluation, hourly DRS "
                "and 15-min scrapes carry the time; the store is write-heavy"
            ),
            default_seed=1,
            heldout_seed=7001,
            imports=("repro.simulation.runner", "repro.infrastructure.topology"),
            sim_days=STEADY_DAYS * STEADY_SIMS,
            inputs=lambda seed: sub_seeds(seed, STEADY_SIMS),
            cycle=_steady_cycle,
        ),
        Workload(
            name="control-plane-churn",
            why=(
                "filling 182-node region with churn, faults, resilience and a "
                "journal: scheduler and placement carry the time, DRS stays small"
            ),
            default_seed=1,
            heldout_seed=7002,
            imports=(
                "repro.simulation.runner",
                "repro.infrastructure.topology",
                "repro.faults",
                "repro.resilience.config",
                "repro.recovery",
            ),
            sim_days=CHURN_DAYS,
            inputs=lambda seed: sub_seeds(seed, 1),
            cycle=_churn_cycle,
        ),
        Workload(
            name="paper-analysis",
            why=(
                "repro generate then repro report: writes then reads one "
                "MetricStore and shares no event-loop code"
            ),
            default_seed=1,
            heldout_seed=7003,
            imports=(
                "repro.datagen",
                "repro.datagen.validation",
                "repro.analysis.report",
            ),
            sim_days=float(PAPER_DAYS),
            inputs=lambda seed: sub_seeds(seed, 1),
            cycle=_paper_cycle,
        ),
    )
}
