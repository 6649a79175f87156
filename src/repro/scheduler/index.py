"""Incremental host-state index for the scheduling hot path.

The legacy pipeline rebuilds every building block's :class:`HostState`
from scratch for each request — O(building blocks × (nodes + VMs)) per
placement.  At paper scale (~1,800 hypervisors, ~48k VMs) that rescan
dominates the run.  The index keeps one long-lived ``HostState`` per
building block and keeps it current from events, O(1) each:

* a :class:`~repro.scheduler.placement.PlacementService` listener updates
  free capacities the instant a claim / release / move lands — exactly,
  since free capacity derives from the provider alone;
* a node listener (:class:`~repro.infrastructure.hierarchy.NodeListeners`)
  updates ``num_instances`` and ``tenants`` on every VM add / remove, and
  marks the block for a from-truth rebuild when a node's health flag is
  written or a node joins;
* free-vCPU *buckets* (log₂-spaced) give a constant-time superset of the
  hosts that can possibly satisfy a request's vCPU demand, so capacity
  filters start from a pre-narrowed candidate list.

Invariants (checked by the property tests):

1. After ``refresh()``, every cached state equals
   ``HostState.from_building_block(bb, placement)`` field-for-field
   (modulo ``metadata``, which schedulers may decorate in place), as long
   as VMs join and leave nodes only through ``add_vm`` / ``remove_vm``.
2. ``bucket(free) >= bucket(v)`` for every host with ``free >= v``, so
   ``candidates(v)`` is always a superset of the exact feasible set —
   pre-selection can never drop a host the filters would have kept.
"""

from __future__ import annotations

from repro.infrastructure.hierarchy import BuildingBlock, ComputeNode, Region
from repro.infrastructure.vm import VM
from repro.scheduler.hoststate import HostState
from repro.scheduler.placement import (
    DISK_GB,
    MEMORY_MB,
    VCPU,
    AllocationError,
    PlacementService,
)


def bucket_key(free_vcpus: float) -> int:
    """Log₂ bucket of a free-vCPU amount (monotonic in ``free_vcpus``)."""
    return max(0, int(free_vcpus)).bit_length()


class HostStateIndex:
    """Long-lived, incrementally maintained HostStates for one region."""

    def __init__(self, region: Region, placement: PlacementService) -> None:
        self.region = region
        self.placement = placement
        self._bbs: dict[str, BuildingBlock] = {
            bb.bb_id: bb for bb in region.iter_building_blocks()
        }
        self._order: list[str] = list(self._bbs)
        self._states: dict[str, HostState] = {}
        self._dirty: set[str] = set(self._bbs)
        self._buckets: dict[int, set[str]] = {}
        self._bucket_of: dict[str, int] = {}
        placement.add_listener(self._on_placement_event)
        for bb in self._bbs.values():
            bb.listeners.append(self._on_node_event)

    def close(self) -> None:
        """Unsubscribe from placement and node events (index becomes inert)."""
        self.placement.remove_listener(self._on_placement_event)
        for bb in self._bbs.values():
            bb.listeners.remove(self._on_node_event)

    # -- incremental maintenance ------------------------------------------------

    def _on_placement_event(self, event: str, provider_id: str) -> None:
        if provider_id not in self._bbs:
            return
        if event == "remove":
            self._discard(provider_id)
            return
        state = self._states.get(provider_id)
        if state is None:
            return  # not built yet: the pending rebuild reads the provider
        try:
            provider = self.placement.provider(provider_id)
        except AllocationError:
            return
        state.free_vcpus = provider.free(VCPU)
        state.free_ram_mb = provider.free(MEMORY_MB)
        state.free_disk_gb = provider.free(DISK_GB)
        self._place_in_bucket(provider_id, state.free_vcpus)

    def _on_node_event(self, event: str, node: ComputeNode, vm: VM | None) -> None:
        bb_id = node.building_block
        if bb_id in self._dirty:
            return  # the pending rebuild reads the truth
        state = self._states[bb_id]
        if event == "add":
            state.num_instances += 1
            if vm.tenant not in state.tenants:
                state.tenants = state.tenants | {vm.tenant}
        elif event == "remove":
            state.num_instances -= 1
            tenant = vm.tenant
            if tenant not in node.tenant_counts and not any(
                tenant in n.tenant_counts for n in self._bbs[bb_id].nodes.values()
            ):
                state.tenants = state.tenants - {tenant}
        else:
            self._dirty.add(bb_id)

    def invalidate(self, host_id: str) -> None:
        """Force a from-scratch rebuild of one building block's state."""
        if host_id in self._bbs:
            self._dirty.add(host_id)

    def refresh(self) -> None:
        """Rebuild the building blocks marked dirty since the last call."""
        dirty = self._dirty
        if dirty:
            for bb_id in dirty:
                self._rebuild_one(bb_id)
            dirty.clear()

    def _rebuild_one(self, bb_id: str) -> None:
        old = self._states.get(bb_id)
        state = HostState.from_building_block(self._bbs[bb_id], self.placement)
        if old is not None and old.metadata:
            # Preserve scheduler-side decorations (e.g. churn class) the
            # way a fresh from-scratch rebuild by the caller would re-stamp.
            state.metadata.update(old.metadata)
        self._states[bb_id] = state
        self._place_in_bucket(bb_id, state.free_vcpus)

    def _discard(self, bb_id: str) -> None:
        bb = self._bbs.pop(bb_id, None)
        if bb is not None:
            bb.listeners.remove(self._on_node_event)
        self._states.pop(bb_id, None)
        self._dirty.discard(bb_id)
        if bb_id in self._order:
            self._order.remove(bb_id)
        old = self._bucket_of.pop(bb_id, None)
        if old is not None:
            self._buckets.get(old, set()).discard(bb_id)

    def _place_in_bucket(self, bb_id: str, free_vcpus: float) -> None:
        key = bucket_key(free_vcpus)
        old = self._bucket_of.get(bb_id)
        if old == key:
            return
        if old is not None:
            self._buckets[old].discard(bb_id)
        self._buckets.setdefault(key, set()).add(bb_id)
        self._bucket_of[bb_id] = key

    # -- queries ---------------------------------------------------------------

    def states(self) -> list[HostState]:
        """All cached states in region iteration order (call refresh first)."""
        states = self._states
        return [states[bb_id] for bb_id in self._order]

    def candidates(self, min_vcpus: float) -> list[HostState]:
        """States whose free-vCPU bucket can possibly fit ``min_vcpus``.

        A superset of the exact feasible set (invariant 2); capacity
        filters still run afterwards and provide the exact check.
        """
        want = bucket_key(min_vcpus)
        eligible: set[str] = set()
        for key, members in self._buckets.items():
            if key >= want:
                eligible.update(members)
        if len(eligible) == len(self._order):
            return self.states()
        states = self._states
        return [states[bb_id] for bb_id in self._order if bb_id in eligible]

    def buckets(self) -> dict[int, frozenset[str]]:
        """Snapshot of the bucket table (for tests / introspection)."""
        return {k: frozenset(v) for k, v in self._buckets.items() if v}
