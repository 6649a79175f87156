"""Where the benchmark hooks into ``repro``, and the per-layer metric names.

Everything here wraps public entry points from outside the program:
class-level hooks are installed before a workload builds its objects
(:func:`install_class_hooks`), instance-level hooks on the objects a
simulation built (:func:`instrument_simulation`).  :func:`layer_metrics`
turns one traced cycle into the flat per-layer metric dict.
"""

from __future__ import annotations

from typing import Any

from tracing import Tracer, percentile

#: Every event kind the regional simulation registers a handler for.
EVENT_KINDS = (
    "vm.create",
    "vm.delete",
    "vm.resize",
    "telemetry.scrape",
    "drs.run",
    "maintenance.start",
    "maintenance.end",
    "host.fail",
    "host.recover",
    "evacuation.retry",
    "domain.fail",
    "domain.recover",
    "telemetry.partition_start",
    "telemetry.partition_end",
    "health.check",
    "health.quarantine_end",
    "admission.retry",
    "reconcile.run",
    "invariant.check",
)

#: Figure and table builders of ``render_experiments_report``, by module.
ANALYSIS_BUILDERS = {
    "repro.analysis.figures": (
        "fig5_dc_cpu_heatmap",
        "fig6_bb_cpu_heatmap",
        "fig7_intra_bb_cpu_heatmap",
        "fig8_top_ready_nodes",
        "fig9_contention_aggregate",
        "fig10_memory_heatmap",
        "fig11_network_tx_heatmap",
        "fig12_network_rx_heatmap",
        "fig13_storage_heatmap",
        "fig14_utilization_cdfs",
        "fig15_lifetime_per_flavor",
    ),
    "repro.analysis.tables": (
        "table1_vcpu_classes",
        "table2_ram_classes",
        "table3_dataset_comparison",
        "table4_metric_catalog",
        "table5_datacenters",
    ),
    "repro.analysis.report": (
        "weekday_weekend_effect",
        "contention_threshold_report",
    ),
}

_BUILDER_NAMES = tuple(n for names in ANALYSIS_BUILDERS.values() for n in names)

#: Per-layer metric names and units, in output order.
LAYER_METRICS: dict[str, str] = {
    "simulation.events": "count",
    **{f"simulation.handler_busy_s.{kind}": "s" for kind in EVENT_KINDS},
    "simulation.handler_busy_s.other": "s",
    "simulation.create_p50_us": "us",
    "simulation.create_p99_us": "us",
    "simulation.unattributed_s": "s",
    "workloads.demand_evals": "count",
    "workloads.demand_busy_s": "s",
    "workloads.demand_objects": "count",
    "drs.passes": "count",
    "drs.busy_s": "s",
    "drs.pass_p50_ms": "ms",
    "drs.pass_p99_ms": "ms",
    "drs.load_evals": "count",
    "drs.imbalance_evals": "count",
    "drs.migrations": "count",
    "drs.migrations_per_load_eval": "ratio",
    "scheduler.requests": "count",
    "scheduler.busy_s": "s",
    "scheduler.schedule_p50_us": "us",
    "scheduler.schedule_p99_us": "us",
    "scheduler.no_valid_host_ratio": "ratio",
    "scheduler.index_refresh_busy_s": "s",
    "scheduler.claims": "count",
    "scheduler.releases": "count",
    "scheduler.placement_busy_s": "s",
    "scheduler.requests_per_s": "1/s",
    "resilience.admission_busy_s": "s",
    "resilience.admission_shed": "count",
    "resilience.heartbeat_busy_s": "s",
    "resilience.reconcile_busy_s": "s",
    "resilience.invariant_busy_s": "s",
    "resilience.invariant_violations": "count",
    "faults.evacuations": "count",
    "faults.evacuation_busy_s": "s",
    "faults.dead_lettered": "count",
    "recovery.journal_records": "count",
    "recovery.journal_bytes": "bytes",
    "recovery.journal_busy_s": "s",
    "telemetry.samples_appended": "count",
    "telemetry.emit_busy_s": "s",
    "telemetry.append_samples_per_s": "1/s",
    "telemetry.read_calls": "count",
    "telemetry.series_read": "count",
    "telemetry.read_busy_s": "s",
    "datagen.generate_busy_s": "s",
    "datagen.samples_emitted": "count",
    "datagen.validate_busy_s": "s",
    "datagen.generate_s": "s",
    "datagen.calibration_pass_ratio": "ratio",
    "analysis.analyse_s": "s",
    **{f"analysis.{name}.busy_s": "s" for name in _BUILDER_NAMES},
    "trace.overhead_ratio": "ratio",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
}


# -- class-level hooks ---------------------------------------------------------


def _samples_returned(tracer: Tracer):
    def on_return(args: tuple, kwargs: dict, result: Any, outer: bool) -> None:
        if outer:
            tracer.counts["telemetry.samples_appended"] += int(result)

    return on_return


def install_class_hooks(tracer: Tracer) -> None:
    """Wrap the classes and modules a workload builds from, before it builds.

    Handlers are wrapped as they are registered through the public
    ``SimulationEngine.on``; demand evaluation, store appends and reads,
    and the analysis builders are wrapped where every caller finds them.
    """
    import importlib

    from repro.simulation.engine import SimulationEngine
    from repro.telemetry.store import MetricStore
    from repro.workloads.demand import DemandModel, VMDemand
    from repro.workloads.waveform import CompiledDemand

    def make_on(original_on):
        def on(engine, kind, handler):
            group = f"simulation.handler.{kind}"
            latency = "simulation.create" if kind == "vm.create" else None
            events = f"simulation.events.{kind}"
            counts = tracer.counts

            def traced(eng, event):
                counts[events] += 1
                return tracer.call(group, handler, eng, event, latency=latency)

            return original_on(engine, kind, traced)

        return on

    tracer.patch(SimulationEngine, "on", make_on)

    for cls in (CompiledDemand, VMDemand):
        tracer.wrap(cls, "evaluate", "workloads.demand", count="workloads.demand_evals")
    tracer.wrap(
        DemandModel, "demand_for", "workloads.demand_model",
        count="workloads.demand_objects",
    )

    samples = _samples_returned(tracer)

    def one_sample(args, kwargs, result, outer):
        if outer:
            tracer.counts["telemetry.samples_appended"] += 1

    def series_samples(args, kwargs, result, outer):
        if outer:
            series = kwargs["series"] if "series" in kwargs else args[3]
            tracer.counts["telemetry.samples_appended"] += len(series)

    tracer.wrap(MetricStore, "append", "telemetry.append", on_return=one_sample)
    tracer.wrap(
        MetricStore, "append_series", "telemetry.append", on_return=series_samples
    )
    for name in ("append_columns", "ingest", "ingest_blocks"):
        tracer.wrap(MetricStore, name, "telemetry.append", on_return=samples)

    def read_call(args, kwargs, result, outer):
        if outer:
            tracer.counts["telemetry.read_calls"] += 1

    def window_read(args, kwargs, result, outer):
        read_call(args, kwargs, result, outer)
        tracer.counts["telemetry.series_read"] += 1

    tracer.wrap_generator(
        MetricStore, "select", "telemetry.read",
        calls="telemetry.read_calls", items="telemetry.series_read",
    )
    tracer.wrap(MetricStore, "aggregate_across", "telemetry.read", on_return=read_call)
    tracer.wrap(MetricStore, "window", "telemetry.read", on_return=window_read)

    for module_name, names in ANALYSIS_BUILDERS.items():
        module = importlib.import_module(module_name)
        for name in names:
            tracer.wrap(module, name, f"analysis.{name}")


# -- instance-level hooks ------------------------------------------------------


def instrument_simulation(tracer: Tracer, sim: Any) -> None:
    """Wrap the layer objects one built ``RegionSimulation`` holds."""
    from repro.resilience.admission import AdmissionRejected
    from repro.scheduler.pipeline import NoValidHost

    counts = tracer.counts

    def count_load_fn(args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        if len(args) > 1:
            args = (args[0], tracer.counting("drs.load_evals", args[1]), *args[2:])
        elif "load_fn" in kwargs:
            counted = tracer.counting("drs.load_evals", kwargs["load_fn"])
            kwargs = {**kwargs, "load_fn": counted}
        return args, kwargs

    def migrations(args, kwargs, result, outer):
        counts["drs.migrations"] += len(result)

    tracer.wrap(
        sim.drs, "run", "drs.run", count="drs.passes", latency="drs.pass",
        adapt=count_load_fn, on_return=migrations,
    )
    tracer.wrap(sim.drs, "imbalance", "drs.imbalance", count="drs.imbalance_evals")

    def no_valid_host(exc: BaseException) -> None:
        if isinstance(exc, NoValidHost):
            counts["scheduler.no_valid_host"] += 1

    tracer.wrap(
        sim.scheduler, "schedule", "scheduler.schedule",
        count="scheduler.requests", latency="scheduler.schedule",
        on_error=no_valid_host,
    )
    index = getattr(sim.scheduler, "index", None)
    if index is not None:
        tracer.wrap(index, "refresh", "scheduler.index_refresh")
    tracer.wrap(sim.placement, "claim", "scheduler.placement", count="scheduler.claims")
    tracer.wrap(
        sim.placement, "release", "scheduler.placement", count="scheduler.releases"
    )

    if sim.admission is not None:

        def shed(exc: BaseException) -> None:
            if isinstance(exc, AdmissionRejected):
                counts["resilience.admission_shed"] += 1

        tracer.wrap(sim.admission, "submit", "resilience.admission", on_error=shed)
        tracer.wrap(sim.health, "on_heartbeat", "resilience.heartbeat")
        tracer.wrap(sim.reconciler, "reconcile", "resilience.reconcile")
        tracer.wrap(sim.invariants, "check", "resilience.invariant")

    if sim.evacuation is not None:
        tracer.wrap(
            sim.evacuation, "on_retry", "faults.evacuation", count="faults.evacuations"
        )
        tracer.wrap(sim.evacuation, "on_host_fail", "faults.evacuation")

    samples = _samples_returned(tracer)
    tracer.wrap(sim.vrops, "emit_node", "telemetry.append", on_return=samples)
    tracer.wrap(sim.nova_exporter, "emit_region", "telemetry.append", on_return=samples)


def instrument_journal(tracer: Tracer, writer: Any) -> None:
    """Wrap one ``JournalWriter``'s append (the simulation's journal sink)."""
    tracer.wrap(writer, "append", "recovery.journal", count="recovery.journal_records")


# -- metrics -------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, program: dict) -> dict[str, float]:
    """Per-layer metrics of one traced cycle.

    ``program`` carries the cycle's own tallies (violations, dead
    letters, journal bytes) and the untraced workload figures
    (``requests_per_s``, ``generate_s``, ``analyse_s``,
    ``calibration_pass_ratio``).  Every name in :data:`LAYER_METRICS`
    except the ``trace.*`` ones is filled, with 0 where a layer did not run.
    """
    c, b, lat = tracer.counts, tracer.busy, tracer.latencies
    out: dict[str, float] = {}
    out["simulation.events"] = sum(
        v for k, v in c.items() if k.startswith("simulation.events.")
    )
    other = 0.0
    for group, busy in b.items():
        if group.startswith("simulation.handler."):
            kind = group[len("simulation.handler."):]
            if kind in EVENT_KINDS:
                out[f"simulation.handler_busy_s.{kind}"] = busy
            else:
                other += busy
    out["simulation.handler_busy_s.other"] = other
    out["simulation.create_p50_us"] = percentile(lat["simulation.create"], 50) * 1e6
    out["simulation.create_p99_us"] = percentile(lat["simulation.create"], 99) * 1e6
    out["simulation.unattributed_s"] = wall_s - tracer.top_busy

    out["workloads.demand_evals"] = c["workloads.demand_evals"]
    out["workloads.demand_busy_s"] = b["workloads.demand"]
    out["workloads.demand_objects"] = c["workloads.demand_objects"]

    out["drs.passes"] = c["drs.passes"]
    out["drs.busy_s"] = b["drs.run"]
    out["drs.pass_p50_ms"] = percentile(lat["drs.pass"], 50) * 1e3
    out["drs.pass_p99_ms"] = percentile(lat["drs.pass"], 99) * 1e3
    out["drs.load_evals"] = c["drs.load_evals"]
    out["drs.imbalance_evals"] = c["drs.imbalance_evals"]
    out["drs.migrations"] = c["drs.migrations"]
    out["drs.migrations_per_load_eval"] = _ratio(c["drs.migrations"], c["drs.load_evals"])

    out["scheduler.requests"] = c["scheduler.requests"]
    out["scheduler.busy_s"] = b["scheduler.schedule"]
    out["scheduler.schedule_p50_us"] = percentile(lat["scheduler.schedule"], 50) * 1e6
    out["scheduler.schedule_p99_us"] = percentile(lat["scheduler.schedule"], 99) * 1e6
    out["scheduler.no_valid_host_ratio"] = _ratio(
        c["scheduler.no_valid_host"], c["scheduler.requests"]
    )
    out["scheduler.index_refresh_busy_s"] = b["scheduler.index_refresh"]
    out["scheduler.claims"] = c["scheduler.claims"]
    out["scheduler.releases"] = c["scheduler.releases"]
    out["scheduler.placement_busy_s"] = b["scheduler.placement"]
    out["scheduler.requests_per_s"] = program.get("requests_per_s", 0.0)

    out["resilience.admission_busy_s"] = b["resilience.admission"]
    out["resilience.admission_shed"] = c["resilience.admission_shed"]
    out["resilience.heartbeat_busy_s"] = b["resilience.heartbeat"]
    out["resilience.reconcile_busy_s"] = b["resilience.reconcile"]
    out["resilience.invariant_busy_s"] = b["resilience.invariant"]
    out["resilience.invariant_violations"] = program.get("invariant_violations", 0)

    out["faults.evacuations"] = c["faults.evacuations"]
    out["faults.evacuation_busy_s"] = b["faults.evacuation"]
    out["faults.dead_lettered"] = program.get("dead_lettered", 0)

    out["recovery.journal_records"] = c["recovery.journal_records"]
    out["recovery.journal_bytes"] = program.get("journal_bytes", 0)
    out["recovery.journal_busy_s"] = b["recovery.journal"]

    out["telemetry.samples_appended"] = c["telemetry.samples_appended"]
    out["telemetry.emit_busy_s"] = b["telemetry.append"]
    out["telemetry.append_samples_per_s"] = _ratio(
        c["telemetry.samples_appended"], b["telemetry.append"]
    )
    out["telemetry.read_calls"] = c["telemetry.read_calls"]
    out["telemetry.series_read"] = c["telemetry.series_read"]
    out["telemetry.read_busy_s"] = b["telemetry.read"]

    out["datagen.generate_busy_s"] = b["datagen.generate"]
    out["datagen.samples_emitted"] = c["datagen.samples_emitted"]
    out["datagen.validate_busy_s"] = b["datagen.validate"]
    out["datagen.generate_s"] = program.get("generate_s", 0.0)
    out["datagen.calibration_pass_ratio"] = program.get("calibration_pass_ratio", 0.0)
    out["analysis.analyse_s"] = program.get("analyse_s", 0.0)
    for name in _BUILDER_NAMES:
        out[f"analysis.{name}.busy_s"] = b[f"analysis.{name}"]
    for name in LAYER_METRICS:
        if not name.startswith("trace."):
            out.setdefault(name, 0.0)
    return out
