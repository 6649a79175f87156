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


class NodeListeners(list):
    """Callbacks ``listener(event, node, vm)`` for one block's node events.

    ``event`` is ``"add"`` or ``"remove"`` (with the VM), ``"health"`` (a
    ``failed``/``maintenance``/``quarantined`` write) or ``"node"`` (a new
    member; ``vm`` is None for both).  A deep copy of a node or building
    block starts with no listeners: a snapshot must not feed the live
    subscribers, nor drag them into the copy.
    """

    def __deepcopy__(self, memo) -> "NodeListeners":
        return NodeListeners()


_HEALTH_FLAGS = frozenset({"failed", "maintenance", "quarantined"})


@dataclass
class ComputeNode:
    """One physical hypervisor.

    Tracks allocated (requested) resources of resident VMs.  Actual *usage*
    is a telemetry concern handled by the simulation; allocation here is the
    placement-relevant bookkeeping the Nova placement API maintains.
    """

    node_id: str
    physical: Capacity
    #: Shared with the owning building block once the node joins one (see
    #: :meth:`BuildingBlock.add_node`); declared ahead of the health flags
    #: so it exists when ``__init__`` assigns them.
    listeners: NodeListeners = field(
        default_factory=NodeListeners, init=False, repr=False, compare=False
    )
    building_block: str = ""
    datacenter: str = ""
    az: str = ""
    #: Resident VMs; they join and leave only through add_vm/remove_vm.
    vms: dict[str, VM] = field(default_factory=dict, init=False)
    maintenance: bool = False
    #: Hard failure (hypervisor down): resident VMs must be evacuated and no
    #: new placements may land here until recovery clears the flag.
    failed: bool = False
    #: Control-plane fence: the host health service quarantines nodes that
    #: flap (fail/recover oscillation).  A quarantined node keeps its
    #: resident VMs but accepts no new placements until re-admitted.
    quarantined: bool = False
    #: Running sum of resident VMs' requests, kept by add_vm/remove_vm.
    #: Flavor sizes are integer-valued floats, so the sum stays exact.
    _allocated: Capacity = field(
        default_factory=Capacity, init=False, repr=False, compare=False
    )
    #: tenant -> resident VM count, kept by add_vm/remove_vm.
    tenant_counts: dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: (policy, allocated, result) of the last free() call.
    _free_memo: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        # A health flag flip changes what schedulers may place here; the
        # writes are rare, so the hook costs nothing where it matters.
        if name in _HEALTH_FLAGS:
            for listener in self.listeners:
                listener("health", self, None)

    @property
    def healthy(self) -> bool:
        """Neither draining, failed, nor fenced off by quarantine."""
        return not self.maintenance and not self.failed and not self.quarantined

    def allocated(self) -> Capacity:
        """Sum of resources requested by resident VMs."""
        return self._allocated

    def free(self, policy: OvercommitPolicy) -> Capacity:
        """Allocatable-minus-allocated capacity under ``policy`` (memoised
        on the policy and the running total; node hardware is immutable)."""
        allocated = self._allocated
        memo = self._free_memo
        if memo is not None and memo[0] is policy and memo[1] is allocated:
            return memo[2]
        free = policy.allocatable(self.physical) - allocated
        object.__setattr__(self, "_free_memo", (policy, allocated, free))
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
        object.__setattr__(self, "_allocated", self._allocated + vm.requested())
        counts = self.tenant_counts
        counts[vm.tenant] = counts.get(vm.tenant, 0) + 1
        for listener in self.listeners:
            listener("add", self, vm)

    def remove_vm(self, vm_id: str) -> VM:
        """Remove and return a resident VM; clears its ``node_id``."""
        try:
            vm = self.vms.pop(vm_id)
        except KeyError:
            raise KeyError(f"VM {vm_id} not on node {self.node_id}") from None
        vm.node_id = None
        object.__setattr__(
            self,
            "_allocated",
            self._allocated - vm.requested() if self.vms else Capacity(),
        )
        counts = self.tenant_counts
        counts[vm.tenant] -= 1
        if not counts[vm.tenant]:
            del counts[vm.tenant]
        for listener in self.listeners:
            listener("remove", self, vm)
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
    #: Subscribers to every member node's events (shared with the nodes).
    listeners: NodeListeners = field(
        default_factory=NodeListeners, init=False, repr=False, compare=False
    )
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
        node.listeners = self.listeners
        self.nodes[node.node_id] = node
        for listener in self.listeners:
            listener("node", node, None)

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

    def pick_node(self, requested: Capacity) -> ComputeNode | None:
        """The member node this block's policy lands ``requested`` on.

        Only healthy nodes with room under ``overcommit`` qualify.  A
        ``pack`` block takes the node with the highest allocated-memory
        fraction, a ``spread`` block the one with the lowest
        allocated-vCPU fraction; ``node_id`` breaks ties.  None when no
        node fits.
        """
        fitting = [
            n
            for n in self.nodes.values()
            if n.healthy and requested.fits_within(n.free(self.overcommit))
        ]
        if not fitting:
            return None
        if self.policy == "pack":
            return max(
                fitting,
                key=lambda n: (
                    n.allocated().memory_mb / n.physical.memory_mb,
                    n.node_id,
                ),
            )
        return min(
            fitting,
            key=lambda n: (n.allocated().vcpus / n.physical.vcpus, n.node_id),
        )

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
