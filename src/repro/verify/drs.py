"""The brute-force DRS reference the production balancer must agree with.

:func:`reference_pass` re-derives one DRS pass the straightforward way.
From the same load snapshot it rebuilds every node's load fraction from
its resident VMs before each move and scores every (VM, target) candidate
by ``np.std`` over a full copy of the fractions -- no incremental
variance, no shortcut over targets.  As in production, scores within
:data:`~repro.drs.balancer.TIE` of the best so far count as equal and the
first one wins, so neither rounding splits a mathematical tie.

:func:`run_drs_path` drives a seeded simulation whose every DRS pass is
first replayed by the reference on deep copies of the building block and
the migration fault model, then executed by
:class:`~repro.drs.balancer.DrsBalancer` on the same snapshot; any
difference in the (VM, source, target) decisions is a defect.  The
``drs_path`` check of ``repro verify`` runs it.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.drs.affinity import AffinityRules
from repro.drs.balancer import (
    TIE,
    DrsBalancer,
    DrsConfig,
    Migration,
    _allocated_load,
    load_snapshot,
)
from repro.infrastructure.hierarchy import BuildingBlock
from repro.verify.oracle import Mismatch
from repro.verify.scenarios import VerifyScenario


def reference_pass(
    bb: BuildingBlock,
    loads: dict[str, float],
    config: DrsConfig,
    rules: AffinityRules,
    fault_model=None,
) -> list[Migration]:
    """One DRS pass over ``loads`` (vm_id -> cores), scored by ``np.std``."""
    migrations: list[Migration] = []
    aborted: set[str] = set()
    for _ in range(config.max_moves_per_run):
        fractions = {
            node.node_id: (
                sum(loads[vm_id] for vm_id in node.vms) / node.physical.vcpus
                if node.physical.vcpus > 0
                else 0.0
            )
            for node in bb.iter_nodes()
            if not node.failed
        }
        if len(fractions) < 2:
            break
        current = float(np.std(list(fractions.values())))
        if current <= config.imbalance_threshold:
            break
        ordered = sorted(fractions.items(), key=lambda kv: kv[1], reverse=True)
        source = bb.nodes[ordered[0][0]]
        best = best_light = None
        for vm in source.vms.values():
            if vm.vm_id in aborted:
                continue
            load = loads[vm.vm_id]
            for node_id, _ in reversed(ordered[1:]):
                target = bb.nodes[node_id]
                if not target.healthy:
                    continue
                if not vm.requested().fits_within(target.free(bb.overcommit)):
                    continue
                if not rules.allows_move(bb, vm.vm_id, node_id):
                    continue
                after = dict(fractions)
                after[source.node_id] -= load / source.physical.vcpus
                after[node_id] += load / target.physical.vcpus
                improvement = current - float(np.std(list(after.values())))
                if improvement < config.min_improvement:
                    continue
                candidate = (vm.vm_id, source, target, load, improvement)
                if best is None or improvement > best[4] + TIE:
                    best = candidate
                if load <= config.heavy_vm_cores and (
                    best_light is None or improvement > best_light[4] + TIE
                ):
                    best_light = candidate
        move = best_light if best_light is not None else best
        if move is None:
            break
        vm_id, source, target, load, improvement = move
        if fault_model is not None and not fault_model.attempt(
            vm_id, source.node_id, target.node_id
        ):
            aborted.add(vm_id)
            continue
        vm = source.remove_vm(vm_id)
        target.add_vm(vm)
        vm.migrations += 1
        migrations.append(
            Migration(vm_id, source.node_id, target.node_id, load, improvement)
        )
    return migrations


class ComparingBalancer(DrsBalancer):
    """Production DRS that first replays each pass on the reference.

    Both see one load snapshot, taken with one ``load_fn`` call per VM;
    the reference works on copies, so the simulation follows production.
    """

    def __init__(self, config: DrsConfig, rules: AffinityRules) -> None:
        super().__init__(config=config, rules=rules)
        self.passes = 0
        self.migrations = 0
        self.mismatches: list[Mismatch] = []

    def run(self, bb, load_fn=_allocated_load, fault_model=None):
        snapshot = load_snapshot(bb, load_fn)
        expected = reference_pass(
            copy.deepcopy(bb),
            snapshot,
            self.config,
            self.rules,
            copy.deepcopy(fault_model),
        )
        got = super().run(
            bb, load_fn=lambda vm: snapshot[vm.vm_id], fault_model=fault_model
        )
        self.passes += 1
        self.migrations += len(got)

        def decisions(migrations):
            return [[m.vm_id, m.source_node, m.target_node] for m in migrations]

        if decisions(got) != decisions(expected):
            self.mismatches.append(
                Mismatch(
                    check="drs_path",
                    variant="reference-vs-production",
                    subject=f"{bb.bb_id}@pass{self.passes}",
                    field="migrations",
                    expected=decisions(expected),
                    actual=decisions(got),
                )
            )
        return got


def run_drs_path(scenario: VerifyScenario, seed: int) -> ComparingBalancer:
    """Hourly DRS over one simulated day of the scenario's region; the
    returned balancer holds the pass count, migrations and mismatches."""
    from repro.faults.config import FaultConfig
    from repro.simulation.runner import RegionSimulation, SimulationConfig

    config = SimulationConfig(
        duration_days=1.0,
        initial_vms=3 * scenario.requests,
        arrival_rate_per_hour=4.0,
        seed=seed,
        faults=FaultConfig(seed=seed, migration_abort_fraction=0.2),
    )
    sim = RegionSimulation(scenario.topology(), config)
    sim.drs = ComparingBalancer(sim.drs.config, sim.drs.rules)
    sim.run()
    return sim.drs
