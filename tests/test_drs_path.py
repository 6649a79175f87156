"""Snapshot DRS: one load read per VM per pass, scored like the reference.

The balancer reads each VM's load once at the start of a pass and scores
candidate moves by an O(1) variance update; the brute-force reference in
:mod:`repro.verify.drs` rebuilds the fractions and calls ``np.std`` for
every candidate.  Both must pick the same moves, and the ``drs_path``
check of ``repro verify`` must notice when they do not.
"""

import copy
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.drs.affinity import AffinityRules
from repro.drs.balancer import DrsBalancer, DrsConfig, Spread
from repro.infrastructure.flavors import Flavor
from repro.infrastructure.vm import VM
from repro.verify.drs import reference_pass
from repro.verify.runner import _check_drs_path
from repro.verify.scenarios import get_scenario
from tests.conftest import make_bb, make_node


def _cluster(seed, nodes, vms, drained, mixed_cores=False):
    """A seeded cluster with continuous loads; ``mixed_cores`` gives its
    nodes different core counts (the scorer's general case)."""
    rng = np.random.default_rng(seed)
    bb = make_bb(nodes=0 if mixed_cores else nodes)
    for i in range(nodes if mixed_cores else 0):
        bb.add_node(make_node(f"bb0-n{i}", vcpus=int(rng.choice([32, 64, 96]))))
    node_list = list(bb.iter_nodes())
    loads = {}
    for i in range(vms):
        vcpus = int(rng.integers(1, 33))
        vm = VM(vm_id=f"v{i}", flavor=Flavor(f"f{i}", vcpus=vcpus, ram_gib=4))
        # Skewed placement, so most clusters start out of balance.
        node_list[int(rng.integers(0, nodes) * rng.random())].add_vm(vm)
        loads[vm.vm_id] = float(rng.uniform(0.0, vcpus))
    for node in node_list[1 : 1 + drained]:
        node.maintenance = True
    return bb, loads


def test_load_fn_called_once_per_vm_per_pass():
    bb, loads = _cluster(3, nodes=4, vms=30, drained=0)
    calls = Counter()

    def load_fn(vm):
        calls[vm.vm_id] += 1
        return loads[vm.vm_id]

    config = DrsConfig(max_moves_per_run=8, imbalance_threshold=0.0)
    migrations = DrsBalancer(config=config).run(bb, load_fn=load_fn)
    assert migrations
    assert calls == Counter({vm_id: 1 for vm_id in loads})


def test_migrated_vm_keeps_its_snapshotted_load():
    bb, loads = _cluster(4, nodes=3, vms=20, drained=0)
    migrations = DrsBalancer(config=DrsConfig(imbalance_threshold=0.0)).run(
        bb, load_fn=lambda vm: loads[vm.vm_id]
    )
    assert migrations
    for m in migrations:
        assert m.load_cores == loads[m.vm_id]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    nodes=st.integers(min_value=2, max_value=8),
    vms=st.integers(min_value=0, max_value=40),
    drained=st.integers(min_value=0, max_value=2),
    threshold=st.sampled_from((0.0, 0.02, 0.05)),
    moves=st.integers(min_value=1, max_value=12),
    mixed_cores=st.booleans(),
)
def test_incremental_scorer_matches_brute_force(
    seed, nodes, vms, drained, threshold, moves, mixed_cores
):
    bb, loads = _cluster(seed, nodes, vms, drained, mixed_cores)
    config = DrsConfig(imbalance_threshold=threshold, max_moves_per_run=moves)
    expected = reference_pass(copy.deepcopy(bb), loads, config, AffinityRules())
    got = DrsBalancer(config=config).run(bb, load_fn=lambda vm: loads[vm.vm_id])
    assert [(m.vm_id, m.source_node, m.target_node) for m in got] == [
        (m.vm_id, m.source_node, m.target_node) for m in expected
    ]
    for g, e in zip(got, expected):
        assert abs(g.improvement - e.improvement) < 1e-9


def test_equal_targets_keep_the_first():
    """Two empty, identical targets tie exactly: the first in order wins."""
    bb = make_bb(nodes=3)
    source = list(bb.iter_nodes())[0]
    for i in range(4):
        source.add_vm(VM(vm_id=f"v{i}", flavor=Flavor(f"f{i}", vcpus=16, ram_gib=4)))
    config = DrsConfig(max_moves_per_run=1)
    expected = reference_pass(copy.deepcopy(bb), {f"v{i}": 16.0 for i in range(4)},
                              config, AffinityRules())
    got = DrsBalancer(config=config).run(bb)
    assert [(m.vm_id, m.target_node) for m in got] == [
        (m.vm_id, m.target_node) for m in expected
    ] == [("v0", "bb0-n2")]


def test_drs_path_check_passes():
    outcome = _check_drs_path(get_scenario("tiny"), 7)
    assert outcome.ok, [m.render() for m in outcome.mismatches]
    assert "migrations" in outcome.summary


def test_one_perturbed_score_is_detected(monkeypatch):
    """The check must fail when production mis-scores a single candidate:
    here the first one scored in the run is made to look far better."""
    original = Spread.std_after
    calls = []

    def perturbed(*args):
        calls.append(args)
        score = original(*args)
        return score - 1.0 if len(calls) == 1 else score

    monkeypatch.setattr(Spread, "std_after", perturbed)
    outcome = _check_drs_path(get_scenario("tiny"), 7)
    assert len(calls) > 1
    assert not outcome.ok
    assert outcome.mismatches[0].field == "migrations"
