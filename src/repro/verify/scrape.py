"""The per-sample scrape reference the simulation runner must match.

:class:`~repro.simulation.runner.RegionSimulation` scrapes through the
columnar fast path: one evaluation of every VM's demand parameter row
per timestamp (:class:`~repro.workloads.waveform.CompiledDemand`),
summed per node with ``np.bincount``, and values appended through
interned series handles (``VropsExporter.emit_node`` /
``NovaExporter.emit_region``).  DRS reads the same evaluation.

:class:`ReferenceScrapeSimulation` is the same simulation with the two
handlers that read demand swapped for the straightforward versions:

* each VM's demand is evaluated on its own through ``VMDemand.evaluate``
  on a one-element time array and summed in Python, both in the scrape
  and in the DRS ``load_fn``;
* samples are built as :class:`~repro.telemetry.exporters.Sample`
  objects by ``scrape_node`` / ``scrape_region`` and written with
  ``MetricStore.ingest``.

Demand is a pure function of (VM, t), so evaluating it per VM, in any
order and as often as asked, must give the columns' bits.  Everything
else (scheduling, faults, fault-draw order, skip logic) is inherited, so
any difference in placements, counters, the fault report or the store's
content fingerprint is a defect in the fast path.  The ``scrape_path``
check of ``repro verify`` runs both.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.config import ScenarioSpec
from repro.infrastructure.vm import VM
from repro.simulation.engine import SimulationEngine
from repro.simulation.runner import RegionSimulation, SimulationResult


class ReferenceScrapeSimulation(RegionSimulation):
    """``RegionSimulation`` with the per-sample scrape and DRS load."""

    def _handle_scrape(self, engine: SimulationEngine, event) -> None:
        if self.telemetry_faults is not None and self.telemetry_faults.scrape_missed():
            return
        now = np.asarray([engine.now])
        samples = []
        for node in self._node_index.values():
            if node.failed:
                continue
            if self.partition is not None and self.partition.is_blackholed(
                node.node_id
            ):
                continue
            if self.telemetry_faults is not None and self.telemetry_faults.node_is_stale(
                node.node_id
            ):
                samples.extend(
                    self.vrops.scrape_node(node, self._stale_usage, engine.now)
                )
                continue
            cpu_demand = 0.0
            mem_mb = 0.0
            tx = rx = 0.0
            disk = 0.0
            for vm in node.vms.values():
                demand = self.demands.get(vm.vm_id)
                if demand is None:
                    continue
                snap = demand.evaluate(now)
                cpu_demand += float(snap.cpu_cores[0])
                mem_mb += float(snap.memory_mb[0])
                tx += float(snap.network_tx_kbps[0])
                rx += float(snap.network_rx_kbps[0])
                disk += float(snap.disk_gb[0])
            usage = self._node_usage(node, cpu_demand, mem_mb, tx, rx, disk)
            samples.extend(self.vrops.scrape_node(node, usage, engine.now))
        samples.extend(self.nova_exporter.scrape_region(self.region, engine.now))
        self.store.ingest(samples)

    def _drs_load_fn(self, now: float) -> Callable[[VM], float]:
        at = np.asarray([now])

        def load_fn(vm: VM) -> float:
            demand = self.demands.get(vm.vm_id)
            if demand is None:
                return float(vm.flavor.vcpus)
            return float(demand.evaluate(at).cpu_cores[0])

        return load_fn


def run_reference_fault_scenario(spec: ScenarioSpec) -> SimulationResult:
    """:meth:`ScenarioSpec.run <repro.config.ScenarioSpec.run>` on the
    reference."""
    sim = ReferenceScrapeSimulation(spec.topology_spec(), spec.simulation_config())
    return sim.run()
