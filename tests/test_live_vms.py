"""The live-VM registry against a scan of residency in creation order."""

from hypothesis import given, settings, strategies as st

from repro.infrastructure.flavors import default_catalog
from repro.infrastructure.vm import VM
from repro.simulation.live import LiveVMs
from tests.conftest import make_bb

_FLAVOR = default_catalog().get("g_c2_m8")


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["create", "leave", "return"]), st.integers(0, 99)),
        max_size=120,
    )
)
def test_pick_matches_resident_scan(ops):
    bb = make_bb("bb", nodes=3)
    nodes = list(bb.iter_nodes())
    live = LiveVMs()
    bb.listeners.append(live.on_node_event)
    created: list[VM] = []  # creation order
    off_node: list[VM] = []
    for i, (op, a) in enumerate(ops):
        if op == "create":
            vm = VM(vm_id=f"vm{i}", flavor=_FLAVOR)
            nodes[a % len(nodes)].add_vm(vm)
            created.append(vm)
        elif op == "leave":
            resident = [vm for vm in created if vm.node_id is not None]
            if resident:
                vm = resident[a % len(resident)]
                bb.nodes[vm.node_id].remove_vm(vm.vm_id)
                off_node.append(vm)
        elif off_node:
            nodes[a % len(nodes)].add_vm(off_node.pop(a % len(off_node)))
        expected = [vm.vm_id for vm in created if vm.node_id is not None]
        assert len(live) == len(expected)
        assert [live.pick(k).vm_id for k in range(len(live))] == expected
