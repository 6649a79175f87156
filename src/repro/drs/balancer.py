"""The DRS balancing loop.

DRS computes a cluster imbalance metric — the standard deviation of node
load fractions — and greedily recommends VM migrations from the most to the
least loaded node while (a) the imbalance exceeds the configured threshold,
(b) each move improves imbalance by a minimum margin (migrations are costly,
§3.2 "avoiding migration of heavy VMs"), and (c) capacity and affinity rules
hold on the target.

A pass balances one snapshot of measured load: every VM's load is read
once, up front, and a migrated VM carries its snapshotted load with it.
Candidate moves are scored by an O(1) update of the fractions' variance.
The brute-force ``np.std`` twin it must agree with lives in
:mod:`repro.verify.drs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.drs.affinity import AffinityRules
from repro.infrastructure.hierarchy import BuildingBlock, ComputeNode
from repro.infrastructure.vm import VM

#: Maps a VM to its current load in physical-core-equivalents.
LoadFn = Callable[[VM], float]

#: Scores closer than this are equal, so float noise cannot break a
#: mathematical tie (moving either VM of a two-VM node to an empty one).
TIE = 1e-12


def _allocated_load(vm: VM) -> float:
    """Fallback load model: the VM's allocated vCPUs."""
    return float(vm.flavor.vcpus)


@dataclass(frozen=True)
class DrsConfig:
    """Tuning knobs of the balancing loop."""

    #: Trigger threshold on the imbalance metric (std of load fractions).
    imbalance_threshold: float = 0.05
    #: A move must improve imbalance by at least this much.
    min_improvement: float = 0.005
    #: Cap on migrations per balancing pass.
    max_moves_per_run: int = 8
    #: VMs with load above this many cores are considered "heavy" and are
    #: only moved if nothing lighter fixes the imbalance (§3.2).
    heavy_vm_cores: float = 32.0


@dataclass(frozen=True)
class Migration:
    """One executed DRS migration."""

    vm_id: str
    source_node: str
    target_node: str
    load_cores: float
    improvement: float


class Spread:
    """Mean and summed squared deviation of a set of node load fractions."""

    __slots__ = ("n", "mean", "dev2")

    def __init__(self, fractions: Iterable[float]) -> None:
        values = list(fractions)
        self.n = len(values)
        self.mean = sum(values) / self.n if values else 0.0
        self.dev2 = sum((f - self.mean) ** 2 for f in values)

    @property
    def std(self) -> float:
        return math.sqrt(self.dev2 / self.n) if self.n >= 2 else 0.0

    def std_after(
        self, source: float, target: float, source_delta: float, target_delta: float
    ) -> float:
        """The std once fraction ``source`` drops by ``source_delta`` and
        ``target`` rises by ``target_delta``: the squared deviations of the
        two changed nodes swap, then the mean's shift comes off."""
        m = self.mean
        dev2 = (
            self.dev2
            + (source - source_delta - m) ** 2
            - (source - m) ** 2
            + (target + target_delta - m) ** 2
            - (target - m) ** 2
            - (target_delta - source_delta) ** 2 / self.n
        )
        return math.sqrt(max(dev2, 0.0) / self.n)


@dataclass
class DrsBalancer:
    """Balances one building block (vSphere cluster)."""

    config: DrsConfig = field(default_factory=DrsConfig)
    rules: AffinityRules = field(default_factory=AffinityRules)

    def node_load_fractions(
        self, bb: BuildingBlock, load_fn: LoadFn = _allocated_load
    ) -> dict[str, float]:
        """Per-node load as a fraction of physical cores.

        Failed nodes are excluded: they carry no VMs and no usable
        capacity, so counting their zero load would read as imbalance the
        balancer can never fix (and must not "fix" by migrating onto them).
        """
        return _fractions(bb.iter_nodes(), load_snapshot(bb, load_fn))

    def imbalance(
        self, bb: BuildingBlock, load_fn: LoadFn = _allocated_load
    ) -> float:
        """Cluster imbalance: std-dev of node load fractions."""
        return Spread(self.node_load_fractions(bb, load_fn).values()).std

    def run(
        self,
        bb: BuildingBlock,
        load_fn: LoadFn = _allocated_load,
        fault_model=None,
    ) -> list[Migration]:
        """One balancing pass; executes and returns migrations.

        ``load_fn`` is called exactly once per VM on a live node, at the
        start of the pass.  ``fault_model`` (a
        :class:`repro.faults.MigrationFaultModel`) may abort individual
        moves mid-precopy: the VM stays on its source and is not retried
        within this pass.
        """
        loads = load_snapshot(bb, load_fn)
        fractions = _fractions(bb.iter_nodes(), loads)
        migrations: list[Migration] = []
        aborted: set[str] = set()
        for _ in range(self.config.max_moves_per_run):
            spread = Spread(fractions.values())
            if spread.std <= self.config.imbalance_threshold:
                break
            move = self._best_move(bb, fractions, loads, spread, aborted)
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
            fractions.update(_fractions((source, target), loads))
            migrations.append(
                Migration(
                    vm_id=vm_id,
                    source_node=source.node_id,
                    target_node=target.node_id,
                    load_cores=load,
                    improvement=improvement,
                )
            )
        return migrations

    def _best_move(
        self,
        bb: BuildingBlock,
        fractions: dict[str, float],
        loads: dict[str, float],
        spread: Spread,
        exclude: set[str],
    ) -> tuple[str, ComputeNode, ComputeNode, float, float] | None:
        """The single move with the largest imbalance improvement.

        Sources the most loaded node; tries its VMs in residence order
        against healthy targets, least loaded first; a later candidate wins
        only if better by more than :data:`TIE`.  Prefers light VMs: a
        heavy VM (above ``heavy_vm_cores``) is only chosen when no lighter
        candidate achieves the minimum improvement.  VMs in ``exclude``
        (this pass's aborted migrations) are never considered.
        """
        ordered = sorted(fractions.items(), key=lambda kv: kv[1], reverse=True)
        source = bb.nodes[ordered[0][0]]
        source_frac = ordered[0][1]
        source_cores = source.physical.vcpus
        targets = [
            (node, frac, node.physical.vcpus, node.free(bb.overcommit))
            for node, frac in ((bb.nodes[n], f) for n, f in reversed(ordered[1:]))
            if node.healthy
        ]
        current = spread.std
        min_improvement = self.config.min_improvement
        best: tuple[str, ComputeNode, ComputeNode, float, float] | None = None
        best_light: tuple[str, ComputeNode, ComputeNode, float, float] | None = None
        for vm_id, vm in source.vms.items():
            if vm_id in exclude:
                continue
            load = loads[vm_id]
            requested = vm.requested()
            for target, target_frac, target_cores, free in targets:
                if not requested.fits_within(free):
                    continue
                if not self.rules.allows_move(bb, vm_id, target.node_id):
                    continue
                improvement = current - spread.std_after(
                    source_frac, target_frac, load / source_cores, load / target_cores
                )
                if improvement >= min_improvement:
                    candidate = (vm_id, source, target, load, improvement)
                    if best is None or improvement > best[4] + TIE:
                        best = candidate
                    if load <= self.config.heavy_vm_cores and (
                        best_light is None or improvement > best_light[4] + TIE
                    ):
                        best_light = candidate
        return best_light if best_light is not None else best


def load_snapshot(bb: BuildingBlock, load_fn: LoadFn) -> dict[str, float]:
    """vm_id -> load of every VM on a live node, one ``load_fn`` call each."""
    return {
        vm_id: load_fn(vm)
        for node in bb.iter_nodes()
        if not node.failed
        for vm_id, vm in node.vms.items()
    }


def _fractions(
    nodes: Iterable[ComputeNode], loads: dict[str, float]
) -> dict[str, float]:
    """Each live node's snapshotted load over its physical cores, summed
    in residence order."""
    return {
        node.node_id: (
            sum(loads[vm_id] for vm_id in node.vms) / node.physical.vcpus
            if node.physical.vcpus > 0
            else 0.0
        )
        for node in nodes
        if not node.failed
    }
