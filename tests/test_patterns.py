"""Tests for temporal demand patterns."""

import numpy as np
import pytest

from repro.workloads import patterns as pat


@pytest.fixture
def week_grid() -> np.ndarray:
    return np.arange(0, 7 * pat.SECONDS_PER_DAY, 900.0)


class TestConstant:
    def test_level(self, week_grid):
        assert np.all(pat.Constant(0.4)(week_grid) == 0.4)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            pat.Constant(-0.1)


class TestDiurnal:
    def test_peaks_at_peak_hour(self):
        pattern = pat.Diurnal(base=0.1, peak=0.9, peak_hour=12.0)
        hours = np.arange(0, 24) * 3600.0
        values = pattern(hours)
        assert np.argmax(values) == 12
        assert values.max() == pytest.approx(0.9)
        assert values.min() >= 0.1 - 1e-9

    def test_wraps_around_midnight(self):
        pattern = pat.Diurnal(base=0.0, peak=1.0, peak_hour=0.0, width_hours=2.0)
        values = pattern(np.asarray([0.0, 23 * 3600.0, 1 * 3600.0]))
        assert values[0] == pytest.approx(1.0)
        assert values[1] == pytest.approx(values[2])

    def test_peak_below_base_raises(self):
        with pytest.raises(ValueError):
            pat.Diurnal(base=0.5, peak=0.1)


class TestWeekly:
    def test_weekend_scaled(self, week_grid):
        # Epoch day 0 is Thursday; days 2-3 (Sat/Sun) are the weekend.
        values = pat.Weekly(1.0, 0.5)(week_grid)
        saturday = week_grid[
            (week_grid >= 2 * pat.SECONDS_PER_DAY)
            & (week_grid < 3 * pat.SECONDS_PER_DAY)
        ]
        assert np.all(pat.Weekly(1.0, 0.5)(saturday) == 0.5)
        assert values[0] == 1.0  # Thursday

    def test_five_weekdays_two_weekend_days(self, week_grid):
        values = pat.Weekly(1.0, 0.0)(week_grid)
        weekend_share = float(np.mean(values == 0.0))
        assert weekend_share == pytest.approx(2 / 7, abs=0.01)


class TestRamp:
    def test_linear_progression(self):
        pattern = pat.Ramp(0.0, 1.0, duration=100.0)
        values = pattern(np.asarray([0.0, 50.0, 100.0, 200.0]))
        assert values == pytest.approx([0.0, 0.5, 1.0, 1.0])

    def test_relative_to_origin(self):
        pattern = pat.Ramp(0.0, 1.0, duration=100.0, origin=1000.0)
        values = pattern(np.asarray([900.0, 1000.0, 1050.0, 1100.0]))
        assert values == pytest.approx([0.0, 0.0, 0.5, 1.0])

    def test_single_timestamps_progress(self):
        pattern = pat.Ramp(0.2, 0.8, duration=100.0, origin=1000.0)
        singles = [float(pattern(np.asarray([t]))[0]) for t in (1000.0, 1050.0, 1100.0)]
        assert singles == pytest.approx([0.2, 0.5, 0.8])

    def test_decreasing_ramp(self):
        pattern = pat.Ramp(0.8, 0.2, duration=10.0)
        values = pattern(np.asarray([0.0, 10.0]))
        assert values == pytest.approx([0.8, 0.2])

    def test_empty_input(self):
        assert len(pat.Ramp(0, 1, 10)(np.asarray([]))) == 0


class TestBursty:
    def test_levels_are_base_or_burst(self, week_grid):
        pattern = pat.Bursty(0.1, 0.9, burst_probability=0.3, key=11)
        values = pattern(week_grid)
        assert set(np.unique(values)) <= {0.1, 0.9}

    def test_burst_share_tracks_probability(self, week_grid):
        pattern = pat.Bursty(0.0, 1.0, burst_probability=0.25, key=12, correlation=1)
        share = float(np.mean(pattern(week_grid)))
        assert 0.2 < share < 0.3

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            pat.Bursty(0.1, 0.9, burst_probability=1.5, key=13)

    def test_bursts_last_correlation_slots(self, week_grid):
        pattern = pat.Bursty(0.0, 1.0, burst_probability=0.5, key=14, correlation=4)
        values = pattern(week_grid)  # 900 s grid: one sample per slot
        runs = values.reshape(-1, 4)
        assert np.all(runs == runs[:, :1])
        assert 0 < values.mean() < 1

    def test_same_t_same_value(self, week_grid):
        pattern = pat.Bursty(0.1, 0.9, burst_probability=0.3, key=15)
        once = pattern(week_grid)
        assert np.array_equal(pattern(week_grid[::-1])[::-1], once)


class TestSpikeTrain:
    def test_period_and_width(self):
        pattern = pat.SpikeTrain(0.0, 1.0, period=100.0, spike_width=10.0)
        grid = np.arange(0, 300, 1.0)
        values = pattern(grid)
        assert float(np.mean(values)) == pytest.approx(0.1, abs=0.02)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            pat.SpikeTrain(0, 1, period=0, spike_width=1)


class TestComposite:
    def test_max_mode(self, week_grid):
        combo = pat.Composite([pat.Constant(0.2), pat.Constant(0.6)], "max")
        assert np.all(combo(week_grid) == 0.6)

    def test_sum_clipped(self, week_grid):
        combo = pat.Composite([pat.Constant(0.8), pat.Constant(0.8)], "sum")
        assert np.all(combo(week_grid) == 1.0)

    def test_product(self, week_grid):
        combo = pat.Composite([pat.Constant(0.5), pat.Constant(0.5)], "product")
        assert np.all(combo(week_grid) == 0.25)

    def test_empty_and_bad_mode(self):
        with pytest.raises(ValueError):
            pat.Composite([], "max")
        with pytest.raises(ValueError):
            pat.Composite([pat.Constant(0.1)], "avg")


class TestNoise:
    def test_noise_clipped_to_unit_interval(self, week_grid):
        noisy = pat.Noisy(pat.Constant(0.02), sigma=0.5, key=21)
        values = noisy(week_grid)
        assert values.min() >= 0.0
        assert values.max() <= 1.0

    def test_negative_sigma_raises(self):
        with pytest.raises(ValueError):
            pat.Noisy(pat.Constant(0.5), sigma=-1, key=22)

    def test_noise_is_a_pure_function_of_t(self, week_grid):
        noisy = pat.Noisy(pat.Constant(0.5), sigma=0.1, key=23)
        once = noisy(week_grid)
        assert np.array_equal(noisy(week_grid), once)
        singles = np.asarray([noisy(np.asarray([t]))[0] for t in week_grid[:50]])
        assert np.array_equal(singles, once[:50])

    def test_noise_streams_and_keys_independent(self, week_grid):
        def values(key, stream):
            return pat.Noisy(pat.Constant(0.5), 0.1, key, stream)(week_grid)

        base = values(1, pat.CPU_NOISE)
        for other in (values(2, pat.CPU_NOISE), values(1, pat.MEM_NOISE)):
            assert abs(np.corrcoef(base, other)[0, 1]) < 0.05

    def test_noise_is_standard_normal_scaled(self, week_grid):
        noisy = pat.Noisy(pat.Constant(0.5), sigma=0.05, key=24)
        residual = noisy(week_grid) - 0.5
        assert abs(residual.mean()) < 0.005
        assert residual.std() == pytest.approx(0.05, rel=0.1)
