"""Determinism of fault injection: same seed, byte-identical replay.

This is the tier-1 embodiment of the ``determinism_faults`` check of
``repro verify`` (the CI ``verify-smoke`` gate): two independent runs of
the same seeded scenario must hash identically, and hypothesis replays
randomly seeded event streams end to end.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ScenarioSpec
from repro.faults import FaultConfig


def _chaos_config(workload_seed: int, fault_seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        building_blocks=2,
        nodes_per_bb=2,
        duration_days=0.25,
        seed=workload_seed,
        arrival_rate_per_hour=6.0,
        initial_vms=30,
        scrape_interval_s=1800.0,
        drs_interval_s=3600.0,
        faults=FaultConfig(
            seed=fault_seed,
            host_failure_rate_per_day=24.0,
            migration_abort_fraction=0.3,
            scrape_gap_probability=0.05,
            stale_node_probability=0.05,
            evac_backoff_base_s=15.0,
        ),
    )


def _report_sha256(spec: ScenarioSpec) -> str:
    payload = spec.run().fault_report.canonical_json()
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("seed", [7, 23])
def test_same_seed_hashes_identically(seed):
    spec = _chaos_config(seed, seed)
    assert _report_sha256(spec) == _report_sha256(spec)


def test_different_fault_seed_changes_the_report():
    base = _chaos_config(7, 1).run().fault_report
    other = _chaos_config(7, 2).run().fault_report
    assert base.canonical_json() != other.canonical_json()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_property_seeded_replay_is_identical(seed):
    """Any seed pair replays to the same counters AND the same report."""
    spec = _chaos_config(seed % 50, seed)
    first = spec.run()
    second = spec.run()
    assert first.fault_report.canonical_json() == second.fault_report.canonical_json()
    assert first.created == second.created
    assert first.deleted == second.deleted
    assert first.rejected == second.rejected
    assert first.drs_migrations == second.drs_migrations
    assert first.events_processed == second.events_processed
