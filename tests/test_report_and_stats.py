"""Tests for the experiment report renderer."""

from repro.analysis.report import render_experiments_report


class TestReport:
    def test_report_covers_every_artifact(self, small_dataset):
        report = render_experiments_report(small_dataset)
        for artifact in (
            "Fig 5", "Fig 6", "Fig 7", "Fig 8", "Fig 9", "Fig 10",
            "Figs 11-12", "Fig 13", "Fig 14", "Fig 15",
            "Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
        ):
            assert artifact in report, f"report is missing {artifact}"

    def test_report_contains_measured_numbers(self, small_dataset):
        report = render_experiments_report(small_dataset)
        assert "Measured" in report
        assert str(small_dataset.node_count) in report
