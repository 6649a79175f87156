"""Tests for the infrastructure hierarchy and allocation bookkeeping."""

import pytest

from repro.infrastructure.capacity import Capacity, OvercommitPolicy
from repro.infrastructure.flavors import Flavor
from repro.infrastructure.vm import VM
from tests.conftest import make_bb, make_node


def _vm(vm_id="v1", vcpus=4, ram_gib=16) -> VM:
    return VM(vm_id=vm_id, flavor=Flavor(f"f-{vm_id}", vcpus=vcpus, ram_gib=ram_gib))


class TestComputeNode:
    def test_allocation_accumulates(self):
        node = make_node()
        node.add_vm(_vm("a", vcpus=2))
        node.add_vm(_vm("b", vcpus=3))
        assert node.allocated().vcpus == 5

    def test_duplicate_vm_rejected(self):
        node = make_node()
        node.add_vm(_vm("a"))
        with pytest.raises(ValueError, match="already"):
            node.add_vm(_vm("a"))

    def test_remove_unknown_vm_raises(self):
        with pytest.raises(KeyError):
            make_node().remove_vm("ghost")

    def test_remove_clears_node_id(self):
        node = make_node()
        vm = _vm("a")
        node.add_vm(vm)
        assert vm.node_id == node.node_id
        out = node.remove_vm("a")
        assert out.node_id is None

    def test_free_respects_overcommit(self):
        node = make_node(vcpus=10)
        policy = OvercommitPolicy(cpu_ratio=4.0)
        assert node.free(policy).vcpus == 40
        node.add_vm(_vm("a", vcpus=30))
        assert node.free(policy).vcpus == 10

    def test_can_host_false_in_maintenance(self):
        node = make_node()
        node.maintenance = True
        assert not node.can_host(_vm("a"), OvercommitPolicy())

    def test_can_host_checks_all_dimensions(self):
        node = make_node(vcpus=64, memory_gib=8)
        policy = OvercommitPolicy(cpu_ratio=4.0, memory_ratio=1.0)
        assert not node.can_host(_vm("a", vcpus=1, ram_gib=16), policy)


class TestBuildingBlock:
    def test_add_node_stamps_bb_id(self):
        bb = make_bb("bb1", nodes=2)
        for node in bb.iter_nodes():
            assert node.building_block == "bb1"

    def test_duplicate_node_rejected(self):
        bb = make_bb("bb1", nodes=1)
        with pytest.raises(ValueError, match="duplicate"):
            bb.add_node(make_node("bb1-n0"))

    def test_aggregate_capacities(self):
        bb = make_bb("bb1", nodes=3, vcpus=64)
        assert bb.physical().vcpus == 192
        assert bb.free().vcpus == 192 * 4.0  # default cpu_ratio

    def test_vm_count_spans_nodes(self):
        bb = make_bb("bb1", nodes=2)
        nodes = list(bb.iter_nodes())
        nodes[0].add_vm(_vm("a"))
        nodes[1].add_vm(_vm("b"))
        assert bb.vm_count == 2
        assert {vm.vm_id for vm in bb.vms()} == {"a", "b"}


class TestPickNode:
    """``BuildingBlock.pick_node``: the node choice every landing path uses."""

    SMALL = Capacity(vcpus=1, memory_mb=1024)

    @staticmethod
    def _load(bb, **vms_by_node):
        """``n1=(vcpus, ram_gib)`` puts one VM of that size on ``<bb>-n1``."""
        for suffix, (vcpus, ram_gib) in vms_by_node.items():
            bb.nodes[f"{bb.bb_id}-{suffix}"].add_vm(
                _vm(f"vm-{suffix}", vcpus=vcpus, ram_gib=ram_gib)
            )

    def test_pack_picks_highest_memory_fraction(self):
        bb = make_bb("bb", nodes=3, policy="pack")
        # n0 holds the most vCPUs, n1 the most memory: pack goes by memory.
        self._load(bb, n0=(32, 16), n1=(2, 128), n2=(4, 64))
        assert bb.pick_node(self.SMALL).node_id == "bb-n1"

    def test_spread_picks_lowest_vcpu_fraction(self):
        bb = make_bb("bb", nodes=3, policy="spread")
        # n1 holds the fewest vCPUs but the most memory: spread goes by vCPU.
        self._load(bb, n0=(8, 8), n1=(2, 256), n2=(4, 4))
        assert bb.pick_node(self.SMALL).node_id == "bb-n1"

    @pytest.mark.parametrize(
        ("policy", "winner"), [("spread", "bb-n0"), ("pack", "bb-n3")]
    )
    def test_node_id_breaks_ties(self, policy, winner):
        bb = make_bb("bb", nodes=0, policy=policy)
        # Members join out of id order: the tie-break is by id, not order.
        for i in (1, 3, 0, 2):
            bb.add_node(make_node(f"bb-n{i}"))
        assert bb.pick_node(self.SMALL).node_id == winner
        # Equal load again, on every node: the same tie-break decides.
        self._load(bb, n0=(4, 32), n1=(4, 32), n2=(4, 32), n3=(4, 32))
        assert bb.pick_node(self.SMALL).node_id == winner

    @pytest.mark.parametrize("flag", ["failed", "maintenance", "quarantined"])
    @pytest.mark.parametrize("policy", ["spread", "pack"])
    def test_unhealthy_nodes_are_skipped(self, flag, policy):
        bb = make_bb("bb", nodes=2, policy=policy)
        first = bb.pick_node(self.SMALL)
        setattr(first, flag, True)
        second = bb.pick_node(self.SMALL)
        assert second is not None and second is not first
        setattr(second, flag, True)
        assert bb.pick_node(self.SMALL) is None

    def test_fit_is_judged_under_the_overcommit_ratio(self):
        request = Capacity(vcpus=200, memory_mb=1024)
        # 64 physical vCPUs per node: 200 fit only at a 4x CPU ratio.
        assert make_bb("bb", nodes=2, cpu_ratio=4.0).pick_node(request) is not None
        assert make_bb("bb", nodes=2, cpu_ratio=1.0).pick_node(request) is None

    def test_none_when_no_node_has_room(self):
        bb = make_bb("bb", nodes=2, memory_gib=64)
        self._load(bb, n0=(1, 48), n1=(1, 60))
        assert bb.pick_node(Capacity(vcpus=1, memory_mb=17 * 1024)) is None
        # 16 GiB still fits next to n0's 48 GiB.
        fits = bb.pick_node(Capacity(vcpus=1, memory_mb=16 * 1024))
        assert fits.node_id == "bb-n0"


class TestRegionWiring:
    def test_ids_propagate_down(self, tiny_region):
        for node in tiny_region.iter_nodes():
            assert node.datacenter
            assert node.az
            assert node.building_block

    def test_node_and_vm_counts(self, tiny_region):
        assert tiny_region.node_count == 12
        assert tiny_region.vm_count == 0

    def test_find_node(self, tiny_region):
        node = next(tiny_region.iter_nodes())
        assert tiny_region.find_node(node.node_id) is node
        with pytest.raises(KeyError):
            tiny_region.find_node("ghost")

    def test_find_building_block(self, tiny_region):
        assert tiny_region.find_building_block("dc1-hana-00").policy == "pack"
        with pytest.raises(KeyError):
            tiny_region.find_building_block("ghost")

    def test_iter_vms(self, tiny_region):
        node = next(tiny_region.iter_nodes())
        node.add_vm(_vm("a"))
        assert [vm.vm_id for vm in tiny_region.iter_vms()] == ["a"]

    def test_duplicate_az_rejected(self, tiny_region):
        from repro.infrastructure.hierarchy import AvailabilityZone

        with pytest.raises(ValueError, match="duplicate"):
            tiny_region.add_az(AvailabilityZone(az_id="az1"))
