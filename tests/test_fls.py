"""Fuzzy baseline: RSI, trend, partitions, rule table, inference, sweeps."""

import numpy as np
import pytest

from congestionlab.fls import (FlsConfig, SymmetricOutputPartition,
                               TriangularPartition, default_rule_table,
                               fls_score, rsi, trend)


class TestRsi:
    def test_strictly_increasing_is_100(self):
        assert rsi(np.arange(11.0), 10) == 100.0

    def test_strictly_decreasing_is_0(self):
        assert rsi(np.arange(11.0)[::-1], 10) == 0.0

    def test_alternating_is_50(self):
        series = [0.0, 1.0] * 6
        assert rsi(series, 10) == pytest.approx(50.0)

    def test_flat_is_50(self):
        assert rsi(np.ones(11), 10) == 50.0

    def test_uses_only_last_window(self):
        series = [9.0, 0.0] + list(np.arange(11.0))
        assert rsi(series, 10) == 100.0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="need 11 points"):
            rsi(np.ones(10), 10)


class TestTrend:
    def test_constant_series_zero(self):
        assert trend(np.ones(5), 5) == 0.0

    def test_ramp_normalized_slope(self):
        # slope 1 over range 4 -> 0.25
        assert trend([0.0, 1.0, 2.0, 3.0, 4.0], 5) == pytest.approx(0.25)

    def test_reversal_negates(self):
        series = np.array([0.1, 0.5, 0.3, 0.9, 0.7])
        assert trend(series[::-1], 5) == pytest.approx(-trend(series, 5))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            trend(np.ones(3), 5)


class TestPartitions:
    def test_peak_membership(self):
        part = TriangularPartition((0.0, 0.5, 1.0))
        np.testing.assert_allclose(part.membership(0.0), [1, 0, 0])
        np.testing.assert_allclose(part.membership(0.5), [0, 1, 0])
        np.testing.assert_allclose(part.membership(1.0), [0, 0, 1])

    def test_midpoint_half_half(self):
        part = TriangularPartition((0.0, 0.5, 1.0))
        np.testing.assert_allclose(part.membership(0.25), [0.5, 0.5, 0.0])
        np.testing.assert_allclose(part.membership(0.75), [0.0, 0.5, 0.5])

    def test_out_of_universe_clamped(self):
        part = TriangularPartition((0.0, 0.5, 1.0))
        np.testing.assert_allclose(part.membership(-3.0), [1, 0, 0])
        np.testing.assert_allclose(part.membership(7.0), [0, 0, 1])

    def test_adjacent_degrees_sum_to_one(self):
        part = TriangularPartition((0.0, 50.0, 100.0))
        for value in np.linspace(0.0, 100.0, 21):
            assert part.membership(value).sum() == pytest.approx(1.0)

    def test_non_increasing_peaks_rejected(self):
        with pytest.raises(ValueError):
            TriangularPartition((0.5, 0.5, 1.0))

    def test_output_partition_validation(self):
        with pytest.raises(ValueError):
            SymmetricOutputPartition(centers=(0.05, 0.5, 0.95), halfwidth=0.2)

    def test_output_membership_triangles(self):
        part = SymmetricOutputPartition()
        xs = np.array([1.0 / 6.0, 0.5, 5.0 / 6.0])
        for term in range(3):
            member = part.membership(xs, term)
            assert member[term] == pytest.approx(1.0)


class TestRuleTable:
    def test_covers_all_combinations(self):
        table = default_rule_table()
        assert len(table) == 27
        assert set(table.values()) <= {0, 1, 2}

    def test_monotone_in_each_input(self):
        table = default_rule_table()
        for r in range(3):
            for t in range(3):
                for o in range(3):
                    if r < 2:
                        assert table[(r, t, o)] <= table[(r + 1, t, o)]
                    if t < 2:
                        assert table[(r, t, o)] <= table[(r, t + 1, o)]
                    if o < 2:
                        assert table[(r, t, o)] <= table[(r, t, o + 1)]

    def test_extremes(self):
        table = default_rule_table()
        assert table[(0, 0, 0)] == 0
        assert table[(2, 2, 2)] == 2

    def test_incomplete_table_rejected(self):
        table = default_rule_table()
        del table[(1, 1, 1)]
        with pytest.raises(ValueError, match="27"):
            FlsConfig(rule_table=table)


class TestFlsScore:
    def test_saturated_congestion_high_score(self):
        assert fls_score(100.0, 1.0, 0.95) > 0.7

    def test_idle_network_low_score(self):
        assert fls_score(50.0, 0.0, 0.05) < 0.3

    def test_score_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            score = fls_score(float(rng.uniform(0, 100)),
                              float(rng.uniform(-1, 1)),
                              float(rng.uniform(0, 1)))
            assert 0.0 <= score <= 1.0

    def test_monotone_in_occupancy(self):
        for rsi_value, trend_value in ((50.0, 0.0), (60.0, 0.1),
                                       (30.0, -0.2), (80.0, 0.5)):
            scores = [fls_score(rsi_value, trend_value, occ)
                      for occ in np.linspace(0.0, 1.0, 50)]
            diffs = np.diff(scores)
            assert np.all(diffs >= -1e-9)

    def test_monotone_in_rsi(self):
        # monotonicity is checked at balanced occupancy; at off-center
        # operating points the max-aggregation of neighbouring rules can
        # introduce small dips, an inherent property of min-max inference
        for trend_value, occ in ((0.0, 0.5), (0.5, 0.5)):
            scores = [fls_score(r, trend_value, occ)
                      for r in np.linspace(0.0, 100.0, 50)]
            diffs = np.diff(scores)
            assert np.all(diffs >= -1e-9)

    def test_deterministic(self):
        assert fls_score(42.0, 0.3, 0.55) == fls_score(42.0, 0.3, 0.55)
