"""The region → AZ → DC → building block → compute node hierarchy (Figure 1).

A :class:`ComputeNode` is an individual hypervisor (ESXi host).  A
:class:`BuildingBlock` is a vSphere cluster of uniform nodes — the unit Nova
places onto (§3.1: "each vSphere cluster is represented as a single compute
host"); nodes inside it are balanced by DRS.  A :class:`DataCenter` is the
placement and scheduling domain of this study (§3.1, cross-DC migrations are
out of scope).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.infrastructure.capacity import Capacity, OvercommitPolicy
from repro.infrastructure.vm import VM


#: Monotonic counter bumped by every node-level mutation that can affect
#: scheduling: VM add/remove and the failure/maintenance flags.  The
#: scheduler's HostStateIndex compares it across queries to skip its
#: fingerprint scan entirely when no node changed — O(1) instead of
#: O(nodes) on the scheduling hot path.
NODE_MUTATION_EPOCH = 0


def _bump_node_epoch() -> None:
    global NODE_MUTATION_EPOCH
    NODE_MUTATION_EPOCH += 1


@dataclass
class ComputeNode:
    """One physical hypervisor.

    Tracks allocated (requested) resources of resident VMs.  Actual *usage*
    is a telemetry concern handled by the simulation; allocation here is the
    placement-relevant bookkeeping the Nova placement API maintains.
    """

    node_id: str
    physical: Capacity
    building_block: str = ""
    datacenter: str = ""
    az: str = ""
    vms: dict[str, VM] = field(default_factory=dict)
    maintenance: bool = False
    #: Hard failure (hypervisor down): resident VMs must be evacuated and no
    #: new placements may land here until recovery clears the flag.
    failed: bool = False
    #: Control-plane fence: the host health service quarantines nodes that
    #: flap (fail/recover oscillation).  A quarantined node keeps its
    #: resident VMs but accepts no new placements until re-admitted.
    quarantined: bool = False
    #: Bumped by add_vm/remove_vm; part of the allocated() cache guard.
    _vm_epoch: int = field(default=0, init=False, repr=False, compare=False)
    #: (vm_epoch, vms-dict ref, len, Capacity) of the last allocated() sum,
    #: or None.  The dict-identity + length guards catch mutations that
    #: bypass add_vm/remove_vm (e.g. the verify harness forking ``vms`` to
    #: inject a ghost VM), so a stale sum can never be served to a caller
    #: that would otherwise re-count the registry.
    _alloc_cache: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: (vm_epoch, vms-dict ref, len, policy ref, physical ref, Capacity) of
    #: the last free() result: the allocated() guard plus its two inputs.
    _free_cache: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        # Flipping a health flag must invalidate any scheduler-side cache;
        # writes to these fields are rare, so the hook costs nothing
        # where it matters.
        if name == "failed" or name == "maintenance" or name == "quarantined":
            _bump_node_epoch()
        object.__setattr__(self, name, value)

    @property
    def healthy(self) -> bool:
        """Neither draining, failed, nor fenced off by quarantine."""
        return not self.maintenance and not self.failed and not self.quarantined

    def allocated(self) -> Capacity:
        """Sum of resources requested by resident VMs (cached between
        mutations; any add/remove or registry swap recomputes)."""
        vms = self.vms
        cache = self._alloc_cache
        if (
            cache is not None
            and cache[0] == self._vm_epoch
            and cache[1] is vms
            and cache[2] == len(vms)
        ):
            return cache[3]
        total = Capacity()
        for vm in vms.values():
            total = total + vm.requested()
        object.__setattr__(
            self, "_alloc_cache", (self._vm_epoch, vms, len(vms), total)
        )
        return total

    def free(self, policy: OvercommitPolicy) -> Capacity:
        """Allocatable-minus-allocated capacity under ``policy`` (cached
        under the allocated() guard, per policy and physical object)."""
        vms = self.vms
        cache = self._free_cache
        if (
            cache is not None
            and cache[0] == self._vm_epoch
            and cache[1] is vms
            and cache[2] == len(vms)
            and cache[3] is policy
            and cache[4] is self.physical
        ):
            return cache[5]
        free = policy.allocatable(self.physical) - self.allocated()
        object.__setattr__(
            self,
            "_free_cache",
            (self._vm_epoch, vms, len(vms), policy, self.physical, free),
        )
        return free

    def can_host(self, vm: VM, policy: OvercommitPolicy) -> bool:
        """True when the VM's request fits this node under ``policy``."""
        if not self.healthy:
            return False
        return vm.requested().fits_within(self.free(policy))

    def add_vm(self, vm: VM) -> None:
        """Place ``vm`` on this node and stamp its ``node_id``."""
        if vm.vm_id in self.vms:
            raise ValueError(f"VM {vm.vm_id} already on node {self.node_id}")
        self.vms[vm.vm_id] = vm
        vm.node_id = self.node_id
        object.__setattr__(self, "_vm_epoch", self._vm_epoch + 1)
        _bump_node_epoch()

    def remove_vm(self, vm_id: str) -> VM:
        """Remove and return a resident VM; clears its ``node_id``."""
        try:
            vm = self.vms.pop(vm_id)
        except KeyError:
            raise KeyError(f"VM {vm_id} not on node {self.node_id}") from None
        vm.node_id = None
        object.__setattr__(self, "_vm_epoch", self._vm_epoch + 1)
        _bump_node_epoch()
        return vm

    @property
    def vm_count(self) -> int:
        return len(self.vms)


@dataclass
class BuildingBlock:
    """A vSphere cluster: the aggregation Nova schedules onto.

    Nodes within a BB are homogeneous (§3.2: "hosts exhibit homogeneous
    hardware capabilities within a given building block").
    """

    bb_id: str
    datacenter: str = ""
    az: str = ""
    nodes: dict[str, ComputeNode] = field(default_factory=dict)
    overcommit: OvercommitPolicy = field(default_factory=OvercommitPolicy)
    #: Aggregate class for special-purpose BBs ("hana_xl", "gpu", or "" for
    #: general-purpose), matching §3.1's reserved building blocks.
    aggregate_class: str = ""
    #: Placement policy applied inside/onto this BB: "spread" or "pack".
    policy: str = "spread"
    #: (nodes-dict ref, len, Capacity) memo of physical(); node hardware is
    #: immutable, so the sum only changes when the member set does.
    _physical_cache: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add_node(self, node: ComputeNode) -> None:
        """Add a member node, stamping its BB/DC/AZ identifiers."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node {node.node_id} in BB {self.bb_id}")
        node.building_block = self.bb_id
        node.datacenter = self.datacenter
        node.az = self.az
        self.nodes[node.node_id] = node
        _bump_node_epoch()

    def iter_nodes(self) -> Iterator[ComputeNode]:
        return iter(self.nodes.values())

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def physical(self) -> Capacity:
        """Total physical capacity across member nodes (memoised; any
        change to the member set recomputes)."""
        nodes = self.nodes
        cache = self._physical_cache
        if cache is not None and cache[0] is nodes and cache[1] == len(nodes):
            return cache[2]
        total = Capacity()
        for node in nodes.values():
            total = total + node.physical
        self._physical_cache = (nodes, len(nodes), total)
        return total

    def allocated(self) -> Capacity:
        """Sum of resources requested by VMs across member nodes."""
        total = Capacity()
        for node in self.nodes.values():
            total = total + node.allocated()
        return total

    def free(self) -> Capacity:
        """Free allocatable capacity across member nodes."""
        total = Capacity()
        for node in self.nodes.values():
            total = total + node.free(self.overcommit)
        return total

    def vms(self) -> list[VM]:
        """All VMs resident on this building block's nodes."""
        out: list[VM] = []
        for node in self.nodes.values():
            out.extend(node.vms.values())
        return out

    @property
    def vm_count(self) -> int:
        return sum(node.vm_count for node in self.nodes.values())


@dataclass
class DataCenter:
    """A data center: the placement/scheduling domain of the study."""

    dc_id: str
    az: str = ""
    building_blocks: dict[str, BuildingBlock] = field(default_factory=dict)

    def add_building_block(self, bb: BuildingBlock) -> None:
        """Add a building block, propagating DC/AZ identifiers down."""
        if bb.bb_id in self.building_blocks:
            raise ValueError(f"duplicate BB {bb.bb_id} in DC {self.dc_id}")
        bb.datacenter = self.dc_id
        bb.az = self.az
        for node in bb.nodes.values():
            node.datacenter = self.dc_id
            node.az = self.az
        self.building_blocks[bb.bb_id] = bb

    def iter_nodes(self) -> Iterator[ComputeNode]:
        for bb in self.building_blocks.values():
            yield from bb.iter_nodes()

    def iter_building_blocks(self) -> Iterator[BuildingBlock]:
        return iter(self.building_blocks.values())

    @property
    def node_count(self) -> int:
        return sum(bb.node_count for bb in self.building_blocks.values())

    @property
    def vm_count(self) -> int:
        return sum(bb.vm_count for bb in self.building_blocks.values())


@dataclass
class AvailabilityZone:
    """A logical group of independent, co-located DCs (§2.1)."""

    az_id: str
    datacenters: dict[str, DataCenter] = field(default_factory=dict)

    def add_datacenter(self, dc: DataCenter) -> None:
        """Add a data center, propagating the AZ identifier down."""
        if dc.dc_id in self.datacenters:
            raise ValueError(f"duplicate DC {dc.dc_id} in AZ {self.az_id}")
        dc.az = self.az_id
        for bb in dc.building_blocks.values():
            bb.az = self.az_id
            for node in bb.nodes.values():
                node.az = self.az_id
        self.datacenters[dc.dc_id] = dc


@dataclass
class Region:
    """The top of the hierarchy: one or more AZs."""

    region_id: str
    azs: dict[str, AvailabilityZone] = field(default_factory=dict)

    def add_az(self, az: AvailabilityZone) -> None:
        """Add an availability zone to the region."""
        if az.az_id in self.azs:
            raise ValueError(f"duplicate AZ {az.az_id} in region {self.region_id}")
        self.azs[az.az_id] = az

    def iter_datacenters(self) -> Iterator[DataCenter]:
        for az in self.azs.values():
            yield from az.datacenters.values()

    def iter_building_blocks(self) -> Iterator[BuildingBlock]:
        for dc in self.iter_datacenters():
            yield from dc.iter_building_blocks()

    def iter_nodes(self) -> Iterator[ComputeNode]:
        for dc in self.iter_datacenters():
            yield from dc.iter_nodes()

    def iter_vms(self) -> Iterator[VM]:
        for node in self.iter_nodes():
            yield from node.vms.values()

    def find_node(self, node_id: str) -> ComputeNode:
        """Look up one node anywhere in the region (KeyError if absent)."""
        for node in self.iter_nodes():
            if node.node_id == node_id:
                return node
        raise KeyError(f"unknown node: {node_id}")

    def find_building_block(self, bb_id: str) -> BuildingBlock:
        """Look up one building block (KeyError if absent)."""
        for bb in self.iter_building_blocks():
            if bb.bb_id == bb_id:
                return bb
        raise KeyError(f"unknown building block: {bb_id}")

    @property
    def node_count(self) -> int:
        return sum(dc.node_count for dc in self.iter_datacenters())

    @property
    def vm_count(self) -> int:
        return sum(dc.vm_count for dc in self.iter_datacenters())
