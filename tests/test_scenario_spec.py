"""Tests for the unified ScenarioSpec (repro.config)."""

import json
import warnings
from dataclasses import replace

import pytest

from repro.config import (
    ScenarioSpec,
    scheduler_config_from_dict,
    scheduler_config_to_dict,
)
from repro.faults.config import FaultConfig
from repro.resilience.chaos import CHAOS_SPEC
from repro.resilience.config import ResilienceConfig
from repro.scheduler.config import SchedulerConfig
from repro.verify.scenarios import SCENARIOS


class TestRoundTrip:
    def test_defaults_round_trip(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_full_composition_round_trips(self):
        spec = ScenarioSpec(
            topology="chaos",
            duration_days=0.5,
            seed=11,
            scheduler=SchedulerConfig(max_attempts=2, alternates=1),
            faults=FaultConfig(seed=3, host_failure_rate_per_day=2.0),
            resilience=ResilienceConfig(seed=9),
        )
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.sha256() == spec.sha256()

    def test_to_dict_is_json_serialisable(self):
        spec = ScenarioSpec(faults=FaultConfig(), resilience=ResilienceConfig())
        json.dumps(spec.to_dict())

    def test_sha256_changes_with_any_field(self):
        base = ScenarioSpec()
        assert base.sha256() != ScenarioSpec(seed=8).sha256()
        assert (
            base.sha256()
            != ScenarioSpec(scheduler=SchedulerConfig(alternates=1)).sha256()
        )

    def test_sections_omitted_when_unset(self):
        doc = ScenarioSpec().to_dict()
        assert "faults" not in doc
        assert "resilience" not in doc
        assert "scheduler" not in doc


class TestValidation:
    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValueError) as exc:
            ScenarioSpec.from_dict({"topolgy": "lab"})
        assert "topolgy" in str(exc.value)
        assert "known:" in str(exc.value)

    def test_unknown_scheduler_key_rejected(self):
        with pytest.raises(ValueError) as exc:
            ScenarioSpec.from_dict({"scheduler": {"max_attemps": 2}})
        assert "max_attemps" in str(exc.value)

    def test_nested_section_errors_propagate(self):
        with pytest.raises(ValueError, match="host_failure_rate_per_day"):
            ScenarioSpec.from_dict(
                {"faults": {"host_failure_rate_per_day": -1.0}}
            )

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            ScenarioSpec.from_dict([1, 2])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"topology": "mars"},
            {"duration_days": 0.0},
            {"building_blocks": 0},
            {"region_scale": -0.1},
            {"scheduler_factory": "magic"},
            {"initial_vms": -1},
        ],
    )
    def test_bad_scalars_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs)

    def test_scheduler_with_live_objects_not_serialisable(self):
        spec = ScenarioSpec(scheduler=SchedulerConfig(filters=()))
        with pytest.raises(ValueError, match="filter"):
            spec.to_dict()

    def test_scheduler_dict_bridge_round_trips(self):
        config = SchedulerConfig(max_attempts=5, use_index=False)
        assert scheduler_config_from_dict(
            scheduler_config_to_dict(config)
        ) == config


class TestTopologies:
    @staticmethod
    def _shape(spec: ScenarioSpec):
        topology = spec.topology_spec()
        return topology.region_id, [
            (dc.dc_id, dc.az_id, [(bb.bb_id, bb.node_count)
                                  for bb in dc.building_blocks])
            for dc in topology.datacenters
        ]

    # The goldens under tests/goldens/ depend on these literal ids, the
    # ones the fault-scenario and chaos runners have always built.
    def test_lab_matches_fault_scenario_topology(self):
        assert self._shape(ScenarioSpec(topology="lab")) == (
            "fault-lab",
            [("dc1", "az1", [("bb0", 4), ("bb1", 4), ("bb2", 4)])],
        )
        assert self._shape(
            ScenarioSpec(topology="lab", building_blocks=2, nodes_per_bb=3)
        ) == ("fault-lab", [("dc1", "az1", [("bb0", 3), ("bb1", 3)])])

    def test_chaos_matches_chaos_topology(self):
        assert self._shape(CHAOS_SPEC) == (
            "chaos-lab",
            [
                ("dc1", "az1", [("az1-bb0", 4), ("az1-bb1", 4)]),
                ("dc2", "az2", [("az2-bb0", 4), ("az2-bb1", 4)]),
            ],
        )

    def test_paper_topology_scales(self):
        small = ScenarioSpec(topology="paper", region_scale=0.02)
        bigger = ScenarioSpec(topology="paper", region_scale=0.05)
        n_small = sum(
            bb.node_count
            for dc in small.topology_spec().datacenters
            for bb in dc.building_blocks
        )
        n_bigger = sum(
            bb.node_count
            for dc in bigger.topology_spec().datacenters
            for bb in dc.building_blocks
        )
        assert 0 < n_small < n_bigger


class TestVerifyScenarioSpecs:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fault_and_chaos_specs_round_trip(self, name):
        scenario = SCENARIOS[name]
        for seed in (7, 8):
            for spec in (
                scenario.fault_scenario(seed),
                scenario.chaos_scenario(seed),
            ):
                assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestLegacyShapes:
    """The pre-ScenarioSpec ``--config`` shapes through the canonical path."""

    @pytest.mark.parametrize(
        "data",
        [
            {"faults": {"seed": 5, "host_failure_rate_per_day": 1.0}},
            {"resilience": {"seed": 9}},
            {"faults": {"seed": 2}, "resilience": {"seed": 9, "fail_fast": False}},
        ],
    )
    def test_sections_only_chaos_file_replaces_only_its_sections(self, data):
        from repro.cli import _scenario_spec_from_config

        base = CHAOS_SPEC
        expected = base
        if "faults" in data:
            expected = replace(expected, faults=FaultConfig.from_dict(data["faults"]))
        if "resilience" in data:
            expected = replace(
                expected, resilience=ResilienceConfig.from_dict(data["resilience"])
            )
        got = _scenario_spec_from_config(data, base, "chaos", "sections.json")
        assert got == expected
        assert got.to_dict() == expected.to_dict()

    def test_flat_faults_dict_is_unknown_keys(self):
        with pytest.raises(
            ValueError, match="unknown scenario config keys: host_failure_rate_per_day"
        ):
            ScenarioSpec.from_dict({"seed": 1, "host_failure_rate_per_day": 2.0})

    def test_canonical_shape_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ScenarioSpec.from_dict({"faults": {"seed": 3}})
