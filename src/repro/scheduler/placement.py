"""Placement service: resource provider inventories and consumer allocations.

Models the OpenStack Placement API the Nova scheduler queries (§2.2,
Fig 2 step 5).  Each compute host (building block) is a *resource provider*
with VCPU / MEMORY_MB / DISK_GB inventories carrying allocation ratios;
each VM is a *consumer* holding one allocation against one provider.
Claims are atomic: either every resource class fits under its ratio or the
claim fails and nothing is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.infrastructure.capacity import Capacity, OvercommitPolicy
from repro.infrastructure.hierarchy import BuildingBlock
from repro.scheduler.stats import PLACEMENT_STAT_KEYS, normalize_stats

VCPU = "VCPU"
MEMORY_MB = "MEMORY_MB"
DISK_GB = "DISK_GB"

RESOURCE_CLASSES = (VCPU, MEMORY_MB, DISK_GB)


class AllocationError(Exception):
    """A claim could not be satisfied or an allocation is inconsistent."""


@dataclass
class ResourceProvider:
    """One provider (compute host) with per-class inventory."""

    provider_id: str
    #: resource class -> (total, allocation_ratio, reserved)
    inventory: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    #: resource class -> currently allocated amount
    used: dict[str, float] = field(default_factory=dict)
    aggregate_class: str = ""
    az: str = ""

    def set_inventory(
        self, resource_class: str, total: float, ratio: float = 1.0, reserved: float = 0.0
    ) -> None:
        """Define one resource class: total, allocation ratio, reserve."""
        if resource_class not in RESOURCE_CLASSES:
            raise ValueError(f"unknown resource class {resource_class!r}")
        if total < 0 or reserved < 0 or ratio <= 0:
            raise ValueError("total/reserved must be >= 0 and ratio > 0")
        self.inventory[resource_class] = (total, ratio, reserved)
        self.used.setdefault(resource_class, 0.0)

    def capacity(self, resource_class: str) -> float:
        """Allocatable amount: (total - reserved) * allocation_ratio."""
        total, ratio, reserved = self.inventory[resource_class]
        return (total - reserved) * ratio

    def free(self, resource_class: str) -> float:
        return self.capacity(resource_class) - self.used.get(resource_class, 0.0)

    def fits(self, amounts: dict[str, float]) -> bool:
        """Whether all requested amounts fit simultaneously."""
        for rc, amount in amounts.items():
            if rc not in self.inventory:
                return False
            if amount > self.free(rc) + 1e-9:
                return False
        return True


@dataclass(frozen=True)
class Allocation:
    """One consumer's allocation against one provider."""

    consumer_id: str
    provider_id: str
    amounts: dict[str, float]


def _amounts_from_capacity(cap: Capacity) -> dict[str, float]:
    return {VCPU: cap.vcpus, MEMORY_MB: cap.memory_mb, DISK_GB: cap.disk_gb}


#: Listener callback: ``(event, provider_id)`` where event is one of
#: "claim", "release", "remove".  A move fires "release" on the source
#: provider followed by "claim" on the target.
PlacementListener = Callable[[str, str], None]

#: Journal sink: ``(event, consumer_id, provider_id, amounts)``.  Unlike
#: the index listener above, this carries the full allocation identity so
#: a write-ahead journal can record exactly what changed.
PlacementJournalSink = Callable[[str, str, str, dict], None]


class PlacementService:
    """Inventory + allocation store with atomic claims."""

    def __init__(self) -> None:
        self._providers: dict[str, ResourceProvider] = {}
        self._allocations: dict[str, Allocation] = {}
        self._listeners: list[PlacementListener] = []
        self._journal_sinks: list[PlacementJournalSink] = []
        self._counters = {key: 0 for key in PLACEMENT_STAT_KEYS}

    # -- observability ----------------------------------------------------------

    def add_listener(self, listener: PlacementListener) -> None:
        """Subscribe to allocation changes (used by HostStateIndex)."""
        self._listeners.append(listener)

    def remove_listener(self, listener: PlacementListener) -> None:
        """Unsubscribe a previously added listener (no-op if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def add_journal_sink(self, sink: PlacementJournalSink) -> None:
        """Subscribe a write-ahead journal to claims/releases/moves."""
        self._journal_sinks.append(sink)

    def _notify(self, event: str, provider_id: str) -> None:
        for listener in self._listeners:
            listener(event, provider_id)

    def _journal(
        self, event: str, consumer_id: str, provider_id: str, amounts: dict
    ) -> None:
        for sink in self._journal_sinks:
            sink(event, consumer_id, provider_id, amounts)

    def stats(self) -> dict[str, int]:
        """Canonical operation counters: claims, releases, moves, failed."""
        return normalize_stats(self._counters, PLACEMENT_STAT_KEYS)

    # -- provider management ----------------------------------------------------

    def register_building_block(self, bb: BuildingBlock) -> ResourceProvider:
        """Create a provider from a building block's physical inventory."""
        if bb.bb_id in self._providers:
            raise AllocationError(f"provider {bb.bb_id} already registered")
        provider = ResourceProvider(
            provider_id=bb.bb_id, aggregate_class=bb.aggregate_class, az=bb.az
        )
        physical = bb.physical()
        policy: OvercommitPolicy = bb.overcommit
        provider.set_inventory(VCPU, physical.vcpus, policy.cpu_ratio)
        provider.set_inventory(MEMORY_MB, physical.memory_mb, policy.memory_ratio)
        provider.set_inventory(DISK_GB, physical.disk_gb, policy.disk_ratio)
        self._providers[bb.bb_id] = provider
        return provider

    def provider(self, provider_id: str) -> ResourceProvider:
        """Look up a provider (AllocationError if unknown)."""
        try:
            return self._providers[provider_id]
        except KeyError:
            raise AllocationError(f"unknown provider: {provider_id}") from None

    def providers(self) -> list[ResourceProvider]:
        """All registered providers."""
        return list(self._providers.values())

    def remove_provider(self, provider_id: str) -> None:
        """Delete an allocation-free provider (host decommissioned)."""
        provider = self.provider(provider_id)
        if any(v > 1e-9 for v in provider.used.values()):
            raise AllocationError(
                f"provider {provider_id} still has allocations; delete them first"
            )
        del self._providers[provider_id]
        self._notify("remove", provider_id)

    # -- allocations ---------------------------------------------------------------

    def claim(self, consumer_id: str, provider_id: str, requested: Capacity) -> Allocation:
        """Atomically allocate ``requested`` for ``consumer_id``.

        A consumer holds at most one allocation (Nova: one instance, one
        host); re-claiming without releasing first is an error.

        The claim is exception-safe: every check — and the computation of
        every class's new usage — happens before the first write, so a
        failed claim leaves ``used`` untouched for *all* resource classes.
        """
        try:
            if consumer_id in self._allocations:
                raise AllocationError(
                    f"consumer {consumer_id} already has an allocation"
                )
            provider = self.provider(provider_id)
            amounts = _amounts_from_capacity(requested)
            for rc, amount in amounts.items():
                if not (amount >= 0.0):  # also rejects NaN
                    raise AllocationError(
                        f"claim for {consumer_id} requests invalid {rc} amount {amount}"
                    )
            if not provider.fits(amounts):
                raise AllocationError(
                    f"claim for {consumer_id} does not fit on {provider_id}"
                )
        except AllocationError:
            self._counters["failed"] += 1
            raise
        staged = {
            rc: provider.used.get(rc, 0.0) + amount for rc, amount in amounts.items()
        }
        self._journal("claim", consumer_id, provider_id, amounts)
        provider.used.update(staged)
        allocation = Allocation(consumer_id, provider_id, amounts)
        self._allocations[consumer_id] = allocation
        self._counters["claims"] += 1
        self._notify("claim", provider_id)
        return allocation

    def _drop_allocation(self, consumer_id: str) -> Allocation:
        """Remove the allocation, return usage, fire "release"."""
        allocation = self._allocations.pop(consumer_id, None)
        if allocation is None:
            raise AllocationError(f"consumer {consumer_id} has no allocation")
        provider = self.provider(allocation.provider_id)
        self._journal(
            "release", consumer_id, allocation.provider_id, allocation.amounts
        )
        for rc, amount in allocation.amounts.items():
            provider.used[rc] = max(0.0, provider.used.get(rc, 0.0) - amount)
        self._notify("release", allocation.provider_id)
        return allocation

    def release(self, consumer_id: str) -> None:
        """Drop a consumer's allocation (VM deleted or moved)."""
        self._drop_allocation(consumer_id)
        self._counters["releases"] += 1

    def move(self, consumer_id: str, new_provider_id: str) -> Allocation:
        """Re-home an allocation (migration): atomic release+claim."""
        allocation = self._allocations.get(consumer_id)
        if allocation is None:
            self._counters["failed"] += 1
            raise AllocationError(f"consumer {consumer_id} has no allocation")
        target = self.provider(new_provider_id)
        if not target.fits(allocation.amounts):
            self._counters["failed"] += 1
            raise AllocationError(
                f"move of {consumer_id} to {new_provider_id} does not fit"
            )
        self._drop_allocation(consumer_id)
        self._journal("claim", consumer_id, new_provider_id, allocation.amounts)
        for rc, amount in allocation.amounts.items():
            target.used[rc] = target.used.get(rc, 0.0) + amount
        moved = Allocation(consumer_id, new_provider_id, allocation.amounts)
        self._allocations[consumer_id] = moved
        self._counters["moves"] += 1
        self._notify("claim", new_provider_id)
        return moved

    def allocation_for(self, consumer_id: str) -> Allocation | None:
        """The consumer's allocation, or None if it has none."""
        return self._allocations.get(consumer_id)

    def allocations(self) -> Iterable[Allocation]:
        """Every allocation, in the order it was made (a live view)."""
        return self._allocations.values()

    def allocations_on(self, provider_id: str) -> list[Allocation]:
        """Every allocation currently booked on one provider."""
        return [a for a in self._allocations.values() if a.provider_id == provider_id]

    def all_allocations(self) -> list[Allocation]:
        """Every allocation in the store, sorted by consumer for determinism.

        Audit surface for the inventory reconciler, which diffs this list
        against ground-truth node residency.
        """
        return [self._allocations[cid] for cid in sorted(self._allocations)]

    # -- snapshot / restore ------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-able snapshot of the mutable store: usage, allocations, stats.

        Provider *inventories* are deliberately excluded — they derive
        from the building-block topology and are re-registered on
        recovery; only what claims mutated is captured.
        """
        return {
            "used": {
                pid: {rc: provider.used.get(rc, 0.0) for rc in provider.inventory}
                for pid, provider in sorted(self._providers.items())
            },
            "allocations": {
                cid: {
                    "provider": alloc.provider_id,
                    "amounts": dict(alloc.amounts),
                }
                for cid, alloc in sorted(self._allocations.items())
            },
            "counters": dict(self._counters),
        }

    def restore_state(self, state: dict) -> None:
        """Reinstate an :meth:`export_state` snapshot onto this store.

        Every provider named in the snapshot must already be registered
        (recovery rebuilds the region first); unknown providers raise
        :class:`AllocationError` instead of resurrecting ghosts.
        """
        for pid in state["used"]:
            if pid not in self._providers:
                raise AllocationError(
                    f"snapshot names unknown provider {pid!r}; "
                    "register the topology before restoring"
                )
        for pid, used in state["used"].items():
            self._providers[pid].used = {
                rc: float(amount) for rc, amount in used.items()
            }
        self._allocations = {
            cid: Allocation(
                consumer_id=cid,
                provider_id=alloc["provider"],
                amounts={rc: float(v) for rc, v in alloc["amounts"].items()},
            )
            for cid, alloc in state["allocations"].items()
        }
        self._counters = {
            key: int(state["counters"].get(key, 0)) for key in PLACEMENT_STAT_KEYS
        }
        for listener in self._listeners:
            for pid in state["used"]:
                listener("claim", pid)

    def usage_report(self) -> dict[str, dict[str, float]]:
        """Per-provider used/capacity fractions for each resource class."""
        report: dict[str, dict[str, float]] = {}
        for pid, provider in self._providers.items():
            report[pid] = {
                rc: (
                    provider.used.get(rc, 0.0) / provider.capacity(rc)
                    if provider.capacity(rc) > 0
                    else 0.0
                )
                for rc in provider.inventory
            }
        return report
