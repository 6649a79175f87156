"""Tests of the benchmark's own instrumentation.

Run from the repository root::

    python3 -m pytest perfbench -q

They use shrunken versions of the workloads so they finish in seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import workloads  # noqa: E402
from layers import LAYER_METRICS, install_class_hooks, layer_metrics  # noqa: E402
from run import cross_check  # noqa: E402
from tracing import Tracer  # noqa: E402


def _small_churn_config(seed: int):
    from dataclasses import replace

    return replace(
        workloads._churn_config(seed),
        duration_days=1.1,
        initial_vms=120,
        arrival_rate_per_hour=20.0,
        drs_interval_s=6 * 3600.0,
    )


def _small_churn(tracer, workdir):
    return workloads._simulation_cycle(
        0.02, _small_churn_config, [5], tracer, workdir, journal=True
    )


def _traced(cycle_fn, workdir):
    tracer = Tracer()
    install_class_hooks(tracer)
    try:
        cycle = cycle_fn(tracer, workdir)
    finally:
        tracer.restore()
    return tracer, cycle


def test_outside_counts_equal_program_tallies(tmp_path):
    tracer, cycle = _traced(_small_churn, tmp_path)
    assert cycle.failed == 0, cycle.problems
    assert cross_check(tracer, cycle) == []
    assert tracer.counts["scheduler.requests"] == cycle.tallies["requests"] > 0
    assert tracer.counts["telemetry.samples_appended"] == cycle.tallies["samples"] > 0
    assert tracer.counts["recovery.journal_records"] == cycle.tallies["journal_records"] > 0
    assert tracer.counts["drs.passes"] > 0


def test_cross_check_reports_a_mismatch(tmp_path):
    tracer, cycle = _traced(_small_churn, tmp_path)
    tracer.counts["scheduler.requests"] += 1
    assert len(cross_check(tracer, cycle)) == 1


def test_traced_then_untraced_leaves_no_wrapper(tmp_path):
    from repro.simulation.engine import SimulationEngine
    from repro.telemetry.store import MetricStore
    from repro.workloads.waveform import CompiledDemand

    originals = (
        SimulationEngine.on,
        vars(MetricStore)["select"],
        vars(CompiledDemand)["evaluate"],
    )
    before = _small_churn(None, tmp_path)
    tracer, traced = _traced(_small_churn, tmp_path)
    counts = dict(tracer.counts)
    after = _small_churn(None, tmp_path)

    assert dict(tracer.counts) == counts
    assert (
        SimulationEngine.on,
        vars(MetricStore)["select"],
        vars(CompiledDemand)["evaluate"],
    ) == originals
    assert before.digest == traced.digest == after.digest


def test_layer_metrics_cover_every_name(tmp_path):
    tracer, cycle = _traced(_small_churn, tmp_path)
    metrics = layer_metrics(tracer, cycle.wall_s, {})
    assert set(metrics) == {n for n in LAYER_METRICS if not n.startswith("trace.")}
    assert metrics["simulation.unattributed_s"] >= 0.0
    assert metrics["simulation.events"] == cycle.tallies["events"]


def test_datagen_samples_counted_from_outside(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "PAPER_SCALE", 0.02)
    monkeypatch.setattr(workloads, "PAPER_DAYS", 2)
    monkeypatch.setattr(workloads, "PAPER_SAMPLING_S", 3600)
    tracer, cycle = _traced(
        lambda tr, wd: workloads._paper_cycle([3], tr, wd), tmp_path
    )
    assert tracer.counts["datagen.samples_emitted"] == cycle.tallies["samples"] > 0
    assert tracer.counts["telemetry.read_calls"] > 0
    assert tracer.busy["datagen.generate"] > 0.0


class _Layer:
    def outer(self, inner):
        return inner()

    def inner(self):
        return 1

    def items(self):
        yield from (1, 2, 3)


def test_busy_time_is_charged_once_per_group():
    layer = _Layer()
    tracer = Tracer()
    tracer.wrap(layer, "outer", "g", count="outer")
    tracer.wrap(layer, "inner", "g", count="inner")
    assert layer.outer(layer.inner) == 1
    assert tracer.counts["outer"] == tracer.counts["inner"] == 1
    # The nested call is inside the outer span: one top-level span, and
    # the group's busy time equals it.
    assert tracer.busy["g"] == pytest.approx(tracer.top_busy)
    tracer.restore()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)


def test_generator_wrapping_counts_items_and_restores_class():
    original = vars(_Layer)["items"]
    tracer = Tracer()
    tracer.wrap_generator(_Layer, "items", "g", calls="calls", items="items")
    assert list(_Layer().items()) == [1, 2, 3]
    assert tracer.counts["calls"] == 1 and tracer.counts["items"] == 3
    tracer.restore()
    assert vars(_Layer)["items"] is original
