"""Fuzzy baseline: RSI, trend, partitions, rule table, inference, sweeps."""

import numpy as np
import pytest

from congestionlab.fls import (GRID, OCCUPANCY_PEAKS, OUTPUT_CENTRES,
                               OUTPUT_TERMS, RSI_PEAKS, RULE_TABLE, TREND_PEAKS,
                               _rule, fls_score, membership, rsi, trend)


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
        np.testing.assert_allclose(membership(0.0, OCCUPANCY_PEAKS), [1, 0, 0])
        np.testing.assert_allclose(membership(0.5, OCCUPANCY_PEAKS), [0, 1, 0])
        np.testing.assert_allclose(membership(1.0, OCCUPANCY_PEAKS), [0, 0, 1])

    def test_midpoint_half_half(self):
        np.testing.assert_allclose(membership(0.25, OCCUPANCY_PEAKS),
                                   [0.5, 0.5, 0.0])
        np.testing.assert_allclose(membership(0.75, OCCUPANCY_PEAKS),
                                   [0.0, 0.5, 0.5])

    def test_out_of_universe_clamped(self):
        np.testing.assert_allclose(membership(-3.0, OCCUPANCY_PEAKS), [1, 0, 0])
        np.testing.assert_allclose(membership(7.0, OCCUPANCY_PEAKS), [0, 0, 1])

    def test_adjacent_degrees_sum_to_one(self):
        for value in np.linspace(0.0, 100.0, 21):
            assert membership(value, RSI_PEAKS).sum() == pytest.approx(1.0)

    def test_output_membership_triangles(self):
        # 1/6 and 5/6 fall between grid points, so each flank is fitted with
        # a line and the two lines must meet at height 1 over the centre
        for term, centre in zip(OUTPUT_TERMS, OUTPUT_CENTRES):
            assert term.max() <= 1.0
            for flank in (GRID < centre, GRID > centre):
                inside = flank & (term > 0.0)
                line = np.polyfit(GRID[inside], term[inside], 1)
                assert np.polyval(line, centre) == pytest.approx(1.0)


class TestRuleTable:
    def test_covers_all_combinations(self):
        assert RULE_TABLE.shape == (3, 3, 3)
        assert set(RULE_TABLE.flat) <= {0, 1, 2}

    def test_monotone_in_each_input(self):
        table = RULE_TABLE
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
        assert RULE_TABLE[(0, 0, 0)] == 0
        assert RULE_TABLE[(2, 2, 2)] == 2


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

    def test_matches_rule_by_rule_reference(self):
        # the 27 rules one at a time, as Mamdani inference states them; the
        # array min/max gives the same firing strengths, so the same bits
        def reference(r_value, t_value, o_value):
            degrees = (membership(r_value, RSI_PEAKS),
                       membership(t_value, TREND_PEAKS),
                       membership(o_value, OCCUPANCY_PEAKS))
            strength = np.zeros(3)
            for r in range(3):
                for t in range(3):
                    for o in range(3):
                        k = _rule(r, t, o)
                        strength[k] = max(strength[k], min(
                            degrees[0][r], degrees[1][t], degrees[2][o]))
            aggregate = np.minimum(OUTPUT_TERMS, strength[:, None]).max(axis=0)
            total = aggregate.sum()
            return 0.0 if total == 0.0 else float((GRID * aggregate).sum()
                                                   / total)

        rng = np.random.default_rng(3)
        inputs = [(float(rng.uniform(-10, 110)), float(rng.uniform(-1.5, 1.5)),
                   float(rng.uniform(-0.1, 1.1))) for _ in range(500)]
        # the peaks themselves, where degrees are exactly 0 or 1
        inputs += [(r, t, o) for r in RSI_PEAKS for t in TREND_PEAKS
                   for o in OCCUPANCY_PEAKS]
        for args in inputs:
            assert fls_score(*args) == reference(*args), args
