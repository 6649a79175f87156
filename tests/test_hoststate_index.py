"""Tests for the incremental HostStateIndex.

The index's contract is equivalence: after ``refresh()`` every cached
state matches a from-scratch ``HostState.from_building_block`` rebuild,
and the free-vCPU bucket table matches one rebuilt from those states —
no matter how claims, releases, moves, rollbacks, node failures, or
VM bookkeeping interleaved since the last query.
"""

import copy
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.infrastructure.capacity import Capacity
from repro.infrastructure.flavors import default_catalog
from repro.infrastructure.hierarchy import ComputeNode
from repro.infrastructure.vm import VM
from repro.scheduler.hoststate import HostState
from repro.scheduler.index import HostStateIndex, bucket_key
from repro.scheduler.placement import AllocationError, PlacementService

_COMPARED_FIELDS = (
    "host_id",
    "az",
    "aggregate_class",
    "policy",
    "free_vcpus",
    "free_ram_mb",
    "free_disk_gb",
    "total_vcpus",
    "total_ram_mb",
    "total_disk_gb",
    "num_instances",
    "tenants",
    "enabled",
)


@pytest.fixture
def placement(tiny_region):
    placement = PlacementService()
    for bb in tiny_region.iter_building_blocks():
        placement.register_building_block(bb)
    return placement


@pytest.fixture
def index(tiny_region, placement):
    idx = HostStateIndex(tiny_region, placement)
    yield idx
    idx.close()


def assert_equivalent(index, region, placement):
    """Index states and buckets match a from-scratch rebuild."""
    index.refresh()
    states = {s.host_id: s for s in index.states()}
    expected_buckets: dict[int, set[str]] = {}
    for bb in region.iter_building_blocks():
        fresh = HostState.from_building_block(bb, placement)
        cached = states.pop(bb.bb_id)
        for field in _COMPARED_FIELDS:
            assert getattr(cached, field) == getattr(fresh, field), (
                f"{bb.bb_id}.{field}: cached {getattr(cached, field)!r} "
                f"!= fresh {getattr(fresh, field)!r}"
            )
        expected_buckets.setdefault(bucket_key(fresh.free_vcpus), set()).add(
            bb.bb_id
        )
    assert not states, f"index has stale entries: {sorted(states)}"
    actual_buckets = {k: v for k, v in index.buckets().items() if v}
    assert actual_buckets == expected_buckets


class TestBucketKey:
    def test_monotonic(self):
        keys = [bucket_key(f) for f in (0, 0.5, 1, 2, 3, 8, 100, 1e6)]
        assert keys == sorted(keys)

    def test_negative_free_maps_to_zero(self):
        assert bucket_key(-3.0) == 0

    def test_candidates_are_superset_of_feasible(self, tiny_region, placement, index):
        index.refresh()
        for demand in (0.5, 1, 7, 64, 200, 500):
            candidate_ids = {s.host_id for s in index.candidates(demand)}
            feasible = {
                s.host_id for s in index.states() if s.free_vcpus >= demand
            }
            assert feasible <= candidate_ids


class TestIncrementalMaintenance:
    def test_initial_refresh_matches_rebuild(self, tiny_region, placement, index):
        assert_equivalent(index, tiny_region, placement)

    def test_claim_updates_free_capacity_without_refresh(
        self, tiny_region, placement, index, catalog
    ):
        index.refresh()
        before = {s.host_id: s.free_vcpus for s in index.states()}
        requested = catalog.get("g_c8_m32").requested()
        placement.claim("vm-x", "dc1-gp-00", requested)
        after = {s.host_id: s.free_vcpus for s in index.states()}
        assert after["dc1-gp-00"] == before["dc1-gp-00"] - requested.vcpus

    def test_direct_node_failure_is_caught_by_refresh(
        self, tiny_region, placement, index
    ):
        index.refresh()
        bb = next(b for b in tiny_region.iter_building_blocks() if b.bb_id == "dc2-gp-00")
        for node in bb.iter_nodes():
            node.failed = True  # direct write, not via any manager
        index.refresh()
        state = next(s for s in index.states() if s.host_id == "dc2-gp-00")
        assert not state.enabled
        for node in bb.iter_nodes():
            node.failed = False
        assert_equivalent(index, tiny_region, placement)

    def test_node_vm_bookkeeping_is_caught_by_refresh(
        self, tiny_region, placement, index, catalog
    ):
        index.refresh()
        bb = next(iter(tiny_region.iter_building_blocks()))
        node = next(bb.iter_nodes())
        node.add_vm(VM(vm_id="vm-t", flavor=catalog.get("g_c2_m8"), tenant="t9"))
        index.refresh()
        state = next(s for s in index.states() if s.host_id == bb.bb_id)
        assert state.num_instances == 1
        assert "t9" in state.tenants

    def test_tenant_leaves_with_its_last_vm_in_the_block(
        self, tiny_region, placement, index, catalog
    ):
        index.refresh()
        bb = next(iter(tiny_region.iter_building_blocks()))
        first, second = list(bb.iter_nodes())[:2]
        flavor = catalog.get("g_c2_m8")
        first.add_vm(VM(vm_id="vm-a", flavor=flavor, tenant="t9"))
        second.add_vm(VM(vm_id="vm-b", flavor=flavor, tenant="t9"))
        state = next(s for s in index.states() if s.host_id == bb.bb_id)
        first.remove_vm("vm-a")
        assert "t9" in state.tenants  # still resident on the second node
        second.remove_vm("vm-b")
        assert "t9" not in state.tenants
        assert state.num_instances == 0
        assert_equivalent(index, tiny_region, placement)

    def test_node_joining_a_block_is_caught_by_refresh(
        self, tiny_region, placement, index
    ):
        bb = next(b for b in tiny_region.iter_building_blocks() if b.bb_id == "dc2-gp-00")
        for node in bb.iter_nodes():
            node.failed = True
        index.refresh()
        assert not next(s for s in index.states() if s.host_id == bb.bb_id).enabled
        spare = next(bb.iter_nodes())
        bb.add_node(ComputeNode(node_id="dc2-gp-00-spare", physical=spare.physical))
        assert_equivalent(index, tiny_region, placement)
        assert next(s for s in index.states() if s.host_id == bb.bb_id).enabled

    def test_deep_copied_block_has_no_listeners(self, tiny_region, index):
        bb = next(iter(tiny_region.iter_building_blocks()))
        clone = copy.deepcopy(bb)
        assert bb.listeners and not clone.listeners
        assert all(n.listeners is clone.listeners for n in clone.iter_nodes())

    def test_metadata_survives_rebuild(self, tiny_region, placement, index):
        index.refresh()
        state = index.states()[0]
        state.metadata["churn_class"] = "short"
        index.invalidate(state.host_id)
        index.refresh()
        rebuilt = next(s for s in index.states() if s.host_id == state.host_id)
        assert rebuilt.metadata["churn_class"] == "short"

    def test_remove_provider_discards_state(self, tiny_region, placement, index):
        index.refresh()
        placement.remove_provider("dc1-hana-01")
        assert all(s.host_id != "dc1-hana-01" for s in index.states())
        assert all("dc1-hana-01" not in bbs for bbs in index.buckets().values())

    def test_close_detaches_listener(self, tiny_region, placement, catalog):
        index = HostStateIndex(tiny_region, placement)
        index.refresh()
        before = {s.host_id: s.free_vcpus for s in index.states()}
        index.close()
        placement.claim("vm-y", "dc1-gp-00", catalog.get("g_c8_m32").requested())
        after = {s.host_id: s.free_vcpus for s in index.states()}
        assert after == before  # inert: no listener updates


# -- property test --------------------------------------------------------------

_FLAVORS = ("g_c1_m1", "g_c4_m16", "g_c16_m64", "g_c64_m256")

_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "claim",
                "release",
                "move",
                "rollback",
                "fail",
                "recover",
                "node_vm",
                "node_vm_remove",
                "resize",
                "quarantine",
                "readmit",
            ]
        ),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_property_index_equivalent_after_random_ops(ops):
    """Randomised interleavings never desynchronise the index."""
    from tests.conftest import build_tiny_region_spec
    from repro.infrastructure.topology import build_region

    region = build_region(build_tiny_region_spec())
    placement = PlacementService()
    for bb in region.iter_building_blocks():
        placement.register_building_block(bb)
    index = HostStateIndex(region, placement)
    catalog = default_catalog()
    bbs = list(region.iter_building_blocks())
    nodes = [n for bb in bbs for n in bb.iter_nodes()]
    node_by_id = {n.node_id: n for n in nodes}
    claimed: list[str] = []
    resident: list[VM] = []

    for i, (op, a, b) in enumerate(ops):
        if op == "claim":
            vm_id = f"vm{i}"
            flavor = catalog.get(_FLAVORS[a % len(_FLAVORS)])
            try:
                placement.claim(vm_id, bbs[b % len(bbs)].bb_id, flavor.requested())
                claimed.append(vm_id)
            except AllocationError:
                pass
        elif op == "release" and claimed:
            try:
                placement.release(claimed.pop(a % len(claimed)))
            except AllocationError:
                pass
        elif op == "move" and claimed:
            try:
                placement.move(claimed[a % len(claimed)], bbs[b % len(bbs)].bb_id)
            except AllocationError:
                pass
        elif op == "rollback" and claimed:
            # A migration that aborts mid-precopy: move out, then move back.
            vm_id = claimed[a % len(claimed)]
            source = placement.allocation_for(vm_id).provider_id
            try:
                placement.move(vm_id, bbs[b % len(bbs)].bb_id)
                placement.move(vm_id, source)
            except AllocationError:
                pass
        elif op == "fail":
            nodes[a % len(nodes)].failed = True
        elif op == "recover":
            nodes[a % len(nodes)].failed = False
        elif op == "quarantine":
            nodes[a % len(nodes)].quarantined = True
        elif op == "readmit":
            nodes[a % len(nodes)].quarantined = False
        elif op == "node_vm":
            node = nodes[a % len(nodes)]
            vm_id = f"nvm{i}"
            vm = VM(
                vm_id=vm_id,
                flavor=catalog.get(_FLAVORS[b % len(_FLAVORS)]),
                tenant=f"t{b % 3}",
            )
            node.add_vm(vm)
            resident.append(vm)
        elif op == "node_vm_remove" and resident:
            vm = resident.pop(a % len(resident))
            node_by_id[vm.node_id].remove_vm(vm.vm_id)
        elif op == "resize" and resident:
            # The flavor changes while the VM is off its node, as in the
            # simulation's resize handler; it may land on another node.
            vm = resident[a % len(resident)]
            node_by_id[vm.node_id].remove_vm(vm.vm_id)
            vm.flavor = catalog.get(_FLAVORS[b % len(_FLAVORS)])
            nodes[b % len(nodes)].add_vm(vm)
        for node in nodes:  # the running totals equal a fresh recount
            total = Capacity()
            for vm in node.vms.values():
                total = total + vm.requested()
            assert node.allocated() == total
            assert node.tenant_counts == Counter(
                vm.tenant for vm in node.vms.values()
            )
        if i % 7 == 0:
            index.refresh()  # interleaved queries must not mask later drift

    assert_equivalent(index, region, placement)
    # Quarantine is a node-level fence outside placement's view: after any
    # interleaving, a building block whose nodes are all failed/quarantined/
    # draining must never surface as an enabled candidate.
    index.refresh()
    enabled_ids = {s.host_id for s in index.candidates(0) if s.enabled}
    for bb in bbs:
        if not any(n.healthy for n in bb.nodes.values()):
            assert bb.bb_id not in enabled_ids
        else:
            assert bb.bb_id in enabled_ids
    index.close()
