"""Inventory reconciliation: placement records vs. ground truth.

In a real control plane the Placement database and the hypervisors drift:
crashed agents leave orphaned allocations, interrupted operations leave
VMs without a booking, and cached scheduler views go stale.  The
:class:`InventoryReconciler` is the periodic audit that closes the loop —
it diffs :class:`~repro.scheduler.placement.PlacementService` allocations
against actual node residency and the scheduler's cached index, repairing
what it can and counting every class of drift:

- **orphaned** allocation, no resident VM anywhere → released;
- **missing** allocation for a resident, alive VM → claimed;
- **mishomed** allocation pointing at the wrong building block → moved;
- **capacity drift**, provider ``used`` ≠ Σ of its allocations → rewritten;
- **index drift**, cached free capacity ≠ provider truth → invalidated.

In the simulation these paths stay near-zero (the invariant checker makes
sure of it) but the reconciler is what keeps byte-accurate runs honest
when fault handlers and admission retries interleave.
"""

from __future__ import annotations

from typing import Any

from repro.resilience.config import ResilienceConfig
from repro.resilience.report import ResilienceReport
from repro.scheduler.placement import DISK_GB, MEMORY_MB, VCPU, AllocationError

_EPS = 1e-6


class InventoryReconciler:
    """Periodic drift audit between placement, nodes, and the index."""

    def __init__(
        self, sim: Any, config: ResilienceConfig, report: ResilienceReport
    ) -> None:
        self.sim = sim
        self.config = config
        self.report = report

    def reconcile(self, now: float) -> int:
        """One full audit pass; returns the number of repairs applied."""
        self.report.reconcile_runs += 1
        repairs = 0
        residency = {
            vm_id: node
            for node in self.sim.region.iter_nodes()
            for vm_id in node.vms
        }
        repairs += self._reconcile_allocations(residency)
        repairs += self._reconcile_missing(residency)
        repairs += self._reconcile_capacity()
        repairs += self._reconcile_index()
        if repairs == 0:
            self.report.reconcile_clean_runs += 1
        return repairs

    # -- allocation-side drift -------------------------------------------------

    def _reconcile_allocations(self, residency: dict[str, Any]) -> int:
        placement = self.sim.placement
        repairs = 0
        for allocation in placement.all_allocations():
            vm_id = allocation.consumer_id
            node = residency.get(vm_id)
            if node is None:
                # Booked but resident nowhere: the agent died mid-teardown.
                placement.release(vm_id)
                self.report.orphaned_allocations_released += 1
                repairs += 1
            elif node.building_block != allocation.provider_id:
                try:
                    placement.move(vm_id, node.building_block)
                    self.report.mishomed_allocations_moved += 1
                    repairs += 1
                except AllocationError:
                    self.report.unrepairable_drift += 1
        return repairs

    def _reconcile_missing(self, residency: dict[str, Any]) -> int:
        placement = self.sim.placement
        vms = getattr(self.sim, "vms", {})
        repairs = 0
        for vm_id in sorted(residency):
            vm = vms.get(vm_id)
            if vm is None or not vm.alive:
                continue
            if placement.allocation_for(vm_id) is not None:
                continue
            node = residency[vm_id]
            try:
                placement.claim(vm_id, node.building_block, vm.flavor.requested())
                self.report.missing_allocations_claimed += 1
                repairs += 1
            except AllocationError:
                self.report.unrepairable_drift += 1
        return repairs

    # -- provider/index drift ----------------------------------------------------

    def _reconcile_capacity(self) -> int:
        placement = self.sim.placement
        providers = sorted(placement.providers(), key=lambda p: p.provider_id)
        expected = {
            p.provider_id: {rc: 0.0 for rc in p.inventory} for p in providers
        }
        # One pass over the allocations in the order they were made, so each
        # provider's sums add up exactly as a per-provider scan would.
        for allocation in placement.allocations():
            sums = expected.get(allocation.provider_id)
            if sums is not None:
                for rc, amount in allocation.amounts.items():
                    sums[rc] = sums.get(rc, 0.0) + amount
        index = getattr(self.sim.scheduler, "index", None)
        repairs = 0
        for provider in providers:
            sums = expected[provider.provider_id]
            drifted = any(
                abs(provider.used.get(rc, 0.0) - amount) > _EPS
                for rc, amount in sums.items()
            )
            if drifted:
                # Rewriting ``used`` bypasses the placement listener that
                # keeps the index current, so invalidate its view here.
                provider.used.update(sums)
                self.report.capacity_drift_repairs += 1
                repairs += 1
                if index is not None:
                    index.invalidate(provider.provider_id)
        return repairs

    def _reconcile_index(self) -> int:
        index = getattr(self.sim.scheduler, "index", None)
        if index is None:
            return 0
        placement = self.sim.placement
        repairs = 0
        # Compare the index's *cached* view against provider truth without
        # refreshing first — refresh is exactly what a drifted cache needs.
        cached = getattr(index, "_states", {})
        for bb_id in sorted(cached):
            state = cached[bb_id]
            try:
                provider = placement.provider(bb_id)
            except AllocationError:
                continue
            if (
                abs(state.free_vcpus - provider.free(VCPU)) > _EPS
                or abs(state.free_ram_mb - provider.free(MEMORY_MB)) > _EPS
                or abs(state.free_disk_gb - provider.free(DISK_GB)) > _EPS
            ):
                index.invalidate(bb_id)
                self.report.index_drift_invalidations += 1
                repairs += 1
        return repairs
