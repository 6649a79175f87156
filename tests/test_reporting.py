"""Tests for the unified report protocol (repro.reporting)."""

import json
from dataclasses import dataclass

import pytest

from repro.reporting import (
    Report,
    ReportBase,
    canonical_bytes,
    canonical_json,
    report_diff,
    report_sha256,
    write_report,
)


@dataclass
class _Toy(ReportBase):
    value: int = 1

    def to_dict(self) -> dict:
        return {"b": self.value, "a": [1, 2], "nested": {"z": 0, "y": 1}}


class TestCanonicalJson:
    def test_sorted_indented_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_bytes_and_sha_agree_between_helpers_and_base(self):
        toy = _Toy()
        assert canonical_bytes(toy) == toy.canonical_bytes()
        assert report_sha256(toy) == toy.sha256()
        assert toy.canonical_json().encode("utf-8") == toy.canonical_bytes()


class TestDiff:
    def test_identical_reports_empty_diff(self):
        assert report_diff(_Toy(), _Toy()) == ""
        assert _Toy().diff_against(_Toy()) == ""

    def test_changed_value_named_in_unified_diff(self):
        diff = _Toy(2).diff_against(_Toy(1))
        assert '-  "b": 1' in diff
        assert '+  "b": 2' in diff

    def test_diff_against_path(self, tmp_path):
        prior = tmp_path / "prior.json"
        write_report(_Toy(1), prior)
        assert _Toy(1).diff_against(prior) == ""
        assert '+  "b": 3' in _Toy(3).diff_against(prior)


class TestWrite:
    def test_write_is_byte_stable(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(_Toy(), path)
        first = path.read_bytes()
        write_report(_Toy(), path)
        assert path.read_bytes() == first
        assert first == canonical_bytes(_Toy())
        assert json.loads(first) == _Toy().to_dict()

    def test_write_leaves_no_temp_files(self, tmp_path):
        write_report(_Toy(), tmp_path / "r.json")
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_base_write_matches_helper(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _Toy().write(a)
        write_report(_Toy(), b)
        assert a.read_bytes() == b.read_bytes()


class TestProtocolAdoption:
    """Every first-class report in the repo speaks the one protocol."""

    def _reports(self):
        from repro.faults.report import FaultReport
        from repro.resilience.report import ResilienceReport
        from repro.sweep.report import SweepReport

        return [
            FaultReport(seed=1),
            ResilienceReport(seed=1),
            SweepReport(grid_sha256="0" * 64),
        ]

    def test_reports_satisfy_protocol(self):
        for report in self._reports():
            assert isinstance(report, Report)
            assert isinstance(report, ReportBase)

    def test_canonical_bytes_end_with_single_newline(self):
        for report in self._reports():
            data = canonical_bytes(report)
            assert data.endswith(b"\n")
            assert not data.endswith(b"\n\n")

    def test_sha_is_content_addressed(self):
        from repro.faults.report import FaultReport

        assert FaultReport(seed=1).sha256() == FaultReport(seed=1).sha256()
        assert FaultReport(seed=1).sha256() != FaultReport(seed=2).sha256()

    def test_crash_and_verify_reports_inherit_base(self):
        from repro.recovery.harness import CrashReport
        from repro.verify.runner import VerifyConfig, VerifyReport

        crash = CrashReport(scenario="tiny", seeds=[7], snapshot_every=25)
        verify = VerifyReport(config=VerifyConfig(), outcomes=[])
        for report in (crash, verify):
            assert isinstance(report, ReportBase)
