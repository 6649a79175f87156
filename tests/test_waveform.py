"""Exactness and purity of the demand parameter columns (repro.workloads.waveform).

The simulation evaluates every VM's demand at one timestamp in one numpy
pass over :class:`CompiledDemand`'s parameter rows; the per-sample
reference evaluates each VM on its own through ``VMDemand.evaluate``.
The contract is *bitwise* equality, not approximate, and because demand
is a pure function of (VM, t), the order and number of evaluations must
not matter.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.infrastructure.flavors import default_catalog
from repro.simulation.runner import RegionSimulation, SimulationConfig
from repro.workloads import patterns
from repro.workloads.demand import DemandModel
from repro.workloads.profiles import PROFILES
from repro.workloads.waveform import CompiledDemand
from tests.conftest import build_tiny_region_spec

_FLAVOR_NAMES = ("g_c2_m8", "g_c8_m32", "g_c16_m128")
_PROFILE_NAMES = tuple(PROFILES)


def _reference_tuple(demand, t):
    """One tick through ``VMDemand.evaluate``, as the five column values."""
    snap = demand.evaluate(np.asarray([t], dtype=float))
    return (
        float(snap.cpu_cores[0]),
        float(snap.memory_mb[0]),
        float(snap.network_tx_kbps[0]),
        float(snap.network_rx_kbps[0]),
        float(snap.disk_gb[0]),
    )


def _row(columns, compiled, vm_id):
    row = compiled.rows[vm_id]
    return tuple(float(column[row]) for column in columns)


def _demand(seed, flavor_name, profile_name, origin=0.0):
    model = DemandModel(np.random.default_rng(seed))
    flavor = default_catalog().get(flavor_name)
    return model.demand_for(flavor, PROFILES[profile_name]).anchored(origin)


def _population(n, seed=5):
    model = DemandModel(np.random.default_rng(seed))
    catalog = default_catalog()
    return {
        f"vm-{i}": model.demand_for(
            catalog.get(_FLAVOR_NAMES[i % len(_FLAVOR_NAMES)]),
            PROFILES[_PROFILE_NAMES[i % len(_PROFILE_NAMES)]],
        ).anchored(600.0 * i)
        for i in range(n)
    }


def test_repeated_and_shuffled_evaluation_is_identical():
    """Same t, same values: however often and in whatever order VMs ask."""
    demands = _population(40)
    t = 3 * 86_400.0 + 900.0
    first = {vm_id: _reference_tuple(d, t) for vm_id, d in demands.items()}
    order = list(demands)
    np.random.default_rng(1).shuffle(order)
    for vm_id in order + order[::-1]:
        assert _reference_tuple(demands[vm_id], t) == first[vm_id]
    compiled = CompiledDemand()
    for vm_id in order:
        compiled.set(vm_id, demands[vm_id])
    for columns in (compiled.evaluate(t), compiled.evaluate(t)):
        for vm_id, expected in first.items():
            assert _row(columns, compiled, vm_id) == expected


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    flavor_name=st.sampled_from(_FLAVOR_NAMES),
    profile_name=st.sampled_from(_PROFILE_NAMES),
    start=st.floats(min_value=0.0, max_value=30 * 86_400.0),
    interval=st.floats(min_value=1.0, max_value=7200.0),
    ticks=st.integers(min_value=1, max_value=48),
)
def test_compiled_demand_bitwise_equal_at_every_tick(
    seed, flavor_name, profile_name, start, interval, ticks
):
    demand = _demand(seed, flavor_name, profile_name, origin=start)
    compiled = CompiledDemand()
    compiled.set("vm", demand)
    for i in range(ticks):
        t = start + i * interval
        # Plain == is bitwise for floats except NaN (never produced here).
        got = _row(compiled.evaluate(t), compiled, "vm")
        assert got == _reference_tuple(demand, t), t


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    ops=st.lists(
        st.tuples(
            st.sampled_from(("create", "resize", "delete")),
            st.integers(min_value=0, max_value=11),
            st.sampled_from(_FLAVOR_NAMES),
            st.sampled_from(_PROFILE_NAMES),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_compiled_demand_exact_across_recompile_boundary(seed, ops):
    """Rows written on create, rewritten on resize, freed on delete and
    reused stay bit-identical to each VM's own ``VMDemand.evaluate``."""
    model = DemandModel(np.random.default_rng(seed))
    catalog = default_catalog()
    compiled = CompiledDemand(capacity=2)
    live = {}
    for step, (op, vm, flavor_name, profile_name) in enumerate(ops):
        vm_id = f"vm-{vm}"
        if op == "delete":
            compiled.discard(vm_id)
            live.pop(vm_id, None)
        elif op == "create" or vm_id in live:
            demand = model.demand_for(
                catalog.get(flavor_name), PROFILES[profile_name]
            ).anchored(300.0 * step)
            compiled.set(vm_id, demand)
            live[vm_id] = demand
        assert len(compiled.rows) == len(live)
        assert len(set(compiled.rows.values())) == len(live)
        t = 1800.0 * step + 7.5
        columns = compiled.evaluate(t)
        for vm_id, demand in live.items():
            assert compiled.get(vm_id) is demand
            assert _row(columns, compiled, vm_id) == _reference_tuple(demand, t)


@pytest.mark.parametrize("profile_name", _PROFILE_NAMES)
def test_every_builtin_profile_compiles_exactly(profile_name):
    """Every profile's pattern mix has a column layout, exact over a day."""
    compiled = CompiledDemand()
    demands = {
        f"{flavor}-{seed}": _demand(seed, flavor, profile_name, origin=3600.0 * seed)
        for seed in range(4)
        for flavor in _FLAVOR_NAMES
    }
    for vm_id, demand in demands.items():
        compiled.set(vm_id, demand)
    for i in range(96):
        t = 900.0 * i
        columns = compiled.evaluate(t)
        for vm_id, demand in demands.items():
            assert _row(columns, compiled, vm_id) == _reference_tuple(demand, t)


def test_weekly_exact_on_day_boundaries():
    """Day-boundary ticks are where a floor-division discrepancy would bite."""
    demand = _demand(3, "g_c8_m32", "abap_app")
    assert isinstance(demand.cpu_pattern.pattern, patterns.Composite)
    compiled = CompiledDemand()
    compiled.set("vm", demand)
    for day in range(21):
        for nudge in (-0.001, 0.0, 0.001):
            t = day * 86_400.0 + nudge
            if t < 0:
                continue
            assert _row(compiled.evaluate(t), compiled, "vm") == _reference_tuple(
                demand, t
            )


def test_any_pattern_shape_has_a_column_layout():
    """Shapes no profile builds -- a noise-free clipped sum, a diurnal
    peaking above 1 -- evaluate exactly beside the profiles' shapes."""
    cpu = patterns.Composite(
        [
            patterns.Ramp(0.1, 0.6, duration=5 * 86_400.0),
            patterns.SpikeTrain(0.0, 0.3, period=7200.0, spike_width=900.0),
            patterns.Bursty(0.0, 0.2, burst_probability=0.4, key=9),
        ],
        mode="sum",
    )
    demand = _demand(3, "g_c8_m32", "general")
    demand = type(demand)(
        **{**vars(demand), "cpu_pattern": cpu, "mem_pattern": patterns.Diurnal(0.2, 1.3)}
    ).anchored(3600.0)
    others = _population(6)
    compiled = CompiledDemand()
    for vm_id, other in others.items():
        compiled.set(vm_id, other)
    compiled.set("custom", demand)
    for i in range(48):
        t = 1800.0 * i
        columns = compiled.evaluate(t)
        for vm_id, d in {**others, "custom": demand}.items():
            assert _row(columns, compiled, vm_id) == _reference_tuple(d, t)


def test_plain_callables_are_rejected():
    demand = _demand(3, "g_c8_m32", "general")
    custom = patterns.Noisy(lambda ts: np.full(len(ts), 0.5), 0.01, key=1)
    compiled = CompiledDemand()
    with pytest.raises(TypeError, match="not a DemandPattern"):
        compiled.set("vm", type(demand)(**{**vars(demand), "cpu_pattern": custom}))
    assert not compiled.rows


def test_ramp_moves_between_single_timestamp_evaluations():
    """A ramp measured from the VM's creation progresses tick by tick."""
    ramp = patterns.Noisy(
        patterns.Ramp(0.2, 0.8, duration=10 * 86_400.0), sigma=0.0, key=1
    )
    demand = _demand(3, "g_c8_m32", "k8s_infra")
    demand = type(demand)(**{**vars(demand), "cpu_pattern": ramp}).anchored(86_400.0)
    compiled = CompiledDemand()
    compiled.set("vm", demand)
    ratios = [
        compiled.evaluate(86_400.0 * (1 + day)).cpu_cores[compiled.rows["vm"]]
        / demand.flavor.vcpus
        for day in (0, 5, 10, 20)
    ]
    assert ratios == pytest.approx([0.2, 0.5, 0.8, 0.8])


def test_simulated_ramps_start_at_creation():
    """In the simulation, every ramp is measured from its VM's creation."""
    config = SimulationConfig(
        duration_days=0.05, initial_vms=30, arrival_rate_per_hour=60.0, seed=4
    )
    sim = RegionSimulation(build_tiny_region_spec(), config)
    result = sim.run()
    ramps = {
        vm_id: sim.demands.get(vm_id).mem_pattern.pattern
        for vm_id in sim.demands.rows
        if isinstance(sim.demands.get(vm_id).mem_pattern.pattern, patterns.Ramp)
    }
    assert ramps
    assert any(result.vms[vm_id].created_at > 0 for vm_id in ramps)
    for vm_id, ramp in ramps.items():
        created = result.vms[vm_id].created_at
        assert ramp.origin == created
        ends = ramp(np.asarray([created, created + ramp.duration]))
        assert list(ends) == pytest.approx([ramp.start_level, ramp.end_level])
