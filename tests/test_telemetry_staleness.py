"""Gap-aware telemetry semantics: staleness markers, not interpolation."""

import math

import numpy as np
import pytest

from repro.telemetry.downsample import downsample
from repro.telemetry.store import MetricStore
from repro.telemetry.timeseries import STALE, TimeSeries, is_stale


def _series_with_marker() -> TimeSeries:
    return TimeSeries([0.0, 10.0, 20.0, 30.0], [1.0, STALE, 3.0, 5.0])


class TestMarkers:
    def test_stale_constant_is_nan(self):
        assert math.isnan(STALE)
        assert is_stale(STALE)
        assert not is_stale(0.0)

    def test_stale_count(self):
        assert _series_with_marker().stale_count == 1
        assert TimeSeries([0.0], [1.0]).stale_count == 0

    def test_present_strips_markers(self):
        present = _series_with_marker().present()
        assert list(present.timestamps) == [0.0, 20.0, 30.0]
        assert list(present.values) == [1.0, 3.0, 5.0]


class TestQueries:
    def test_at_or_before_returns_none_on_marker(self):
        series = _series_with_marker()
        assert series.at_or_before(5.0) == 1.0
        # The sample at t=10 is a marker: the value there is unknown, and
        # falling back to t=0 would be silent interpolation.
        assert series.at_or_before(10.0) is None
        assert series.at_or_before(15.0) is None
        assert series.at_or_before(20.0) == 3.0

    def test_statistics_skip_markers(self):
        series = _series_with_marker()
        assert series.mean() == pytest.approx(3.0)
        assert series.max() == 5.0
        assert series.min() == 1.0
        assert series.percentile(50) == 3.0

    def test_statistics_raise_when_nothing_observed(self):
        all_stale = TimeSeries([0.0, 10.0], [STALE, STALE])
        for stat in (all_stale.mean, all_stale.max, all_stale.min):
            with pytest.raises(ValueError, match="no observed samples"):
                stat()

    def test_integral_drops_intervals_touching_markers(self):
        clean = TimeSeries([0.0, 10.0, 20.0], [2.0, 2.0, 2.0])
        assert clean.integral() == pytest.approx(40.0)
        gappy = TimeSeries([0.0, 10.0, 20.0], [2.0, STALE, 2.0])
        # Both intervals touch the marker: nothing may be counted.
        assert gappy.integral() == 0.0
        partial = TimeSeries([0.0, 10.0, 20.0, 30.0], [2.0, 2.0, STALE, 2.0])
        assert partial.integral() == pytest.approx(20.0)

    def test_resample_keeps_all_stale_windows_marked(self):
        series = TimeSeries(
            [0.0, 10.0, 60.0, 70.0], [1.0, 3.0, STALE, STALE]
        )
        resampled = series.resample(60.0)
        assert resampled.values[0] == pytest.approx(2.0)
        assert is_stale(resampled.values[1])
        counts = series.resample(60.0, agg="count")
        assert list(counts.values) == [2.0, 0.0]


class TestStore:
    def test_append_stale_writes_marker(self):
        store = MetricStore()
        store.append("m", {"node": "a"}, 0.0, 1.0)
        store.append_stale("m", {"node": "a"}, 10.0)
        series = store.query("m", {"node": "a"})
        assert len(series) == 2
        assert series.stale_count == 1
        assert series.at_or_before(10.0) is None

    def test_aggregate_across_skips_stale_series(self):
        store = MetricStore()
        store.append("m", {"node": "a"}, 10.0, 4.0)
        store.append_stale("m", {"node": "b"}, 10.0)
        out = store.aggregate_across("m", agg="mean")
        # Only the observed series contributes at t=10.
        assert out.at_or_before(10.0) == 4.0

    def test_aggregate_across_propagates_all_stale_timestamps(self):
        store = MetricStore()
        store.append_stale("m", {"node": "a"}, 10.0)
        store.append_stale("m", {"node": "b"}, 10.0)
        out = store.aggregate_across("m", agg="mean")
        assert len(out) == 1
        assert is_stale(out.values[0])


class TestDownsample:
    def test_stale_count_tallied_per_chunk(self):
        series = TimeSeries([0.0, 10.0, 20.0], [1.0, STALE, 3.0])
        (chunk,) = downsample(series, 60.0)
        assert chunk.count == 2
        assert chunk.stale_count == 1
        assert chunk.mean == pytest.approx(2.0)
        assert chunk.total == pytest.approx(4.0)

    def test_all_stale_window_keeps_nan_aggregates(self):
        series = TimeSeries([0.0, 10.0, 60.0], [STALE, STALE, 5.0])
        chunks = downsample(series, 60.0)
        assert chunks[0].count == 0
        assert chunks[0].stale_count == 2
        assert math.isnan(chunks[0].mean)
        assert math.isnan(chunks[0].minimum)
        assert math.isnan(chunks[0].maximum)
        assert chunks[0].total == 0.0
        assert chunks[1].count == 1 and chunks[1].stale_count == 0


class TestScrapeInjection:
    def test_total_gap_leaves_store_empty(self):
        """gap_probability=1 loses every scrape cycle entirely."""
        from repro.config import ScenarioSpec
        from repro.faults import FaultConfig

        result = ScenarioSpec(
            building_blocks=1,
            nodes_per_bb=2,
            duration_days=0.05,
            seed=3,
            arrival_rate_per_hour=0.0,
            initial_vms=5,
            faults=FaultConfig(seed=3, scrape_gap_probability=1.0),
        ).run()
        assert result.store.sample_count() == 0
        assert result.fault_report.scrape_gaps > 0

    def test_stale_nodes_ingest_markers_not_values(self):
        from repro.config import ScenarioSpec
        from repro.faults import FaultConfig

        result = ScenarioSpec(
            building_blocks=1,
            nodes_per_bb=2,
            duration_days=0.05,
            seed=3,
            arrival_rate_per_hour=0.0,
            initial_vms=5,
            faults=FaultConfig(seed=3, stale_node_probability=1.0),
        ).run()
        assert result.fault_report.stale_node_scrapes > 0
        # Every vROps host sample is a marker; timestamps are still present.
        metric = "vrops_hostsystem_cpu_core_utilization_percentage"
        stale_total = 0
        for _labels, series in result.store.select(metric):
            assert len(series) > 0
            stale_total += series.stale_count
            assert np.isnan(series.values).all()
        assert stale_total > 0
