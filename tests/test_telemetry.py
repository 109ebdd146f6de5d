"""Telemetry data model, CSV round-trip, normalization, windowing, splits."""

import numpy as np
import pytest

from congestionlab import telemetry
from congestionlab.telemetry import (CongestionLevel, NormalizationStats,
                                     TelemetryError, TelemetryRecord,
                                     fit_normalization, ingest_csv, one_hot,
                                     records_to_matrix, split_dataset,
                                     window_sequences, write_csv)


def make_record(ts, occ=0.35, label=CongestionLevel.LOW, **kw):
    defaults = dict(timestamp_s=ts, throughput_kbps=59.0, delay_ms=12.5,
                    packet_loss_rate=0.01, queue_occupancy=occ,
                    active_devices=40, label=label)
    defaults.update(kw)
    return TelemetryRecord(**defaults)


def make_series(n, start=1.0):
    rng = np.random.default_rng(0)
    return [make_record(start + k, occ=float(rng.uniform(0, 1)))
            for k in range(n)]


class TestRecord:
    def test_row_parses_to_record(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(telemetry.CSV_HEADER
                        + "\n10,59,12.5,0.01,0.35,40,low\n")
        records = ingest_csv(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.throughput_kbps == 59.0
        assert rec.timestamp_s == 10.0
        assert rec.label == CongestionLevel.LOW

    def test_header_only_is_empty_sequence(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(telemetry.CSV_HEADER + "\n")
        assert ingest_csv(path) == []

    def test_loss_rate_above_one_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(telemetry.CSV_HEADER
                        + "\n10,59,12.5,1.3,0.35,40,low\n")
        with pytest.raises(TelemetryError, match=":2:"):
            ingest_csv(path)

    def test_invariants_enforced_at_construction(self):
        with pytest.raises(TelemetryError):
            make_record(1.0, occ=1.5)
        with pytest.raises(TelemetryError):
            make_record(1.0, throughput_kbps=-1.0)
        with pytest.raises(TelemetryError):
            make_record(1.0, active_devices=-1)

    def test_non_finite_values_rejected(self):
        for field in ("timestamp_s", "throughput_kbps", "delay_ms",
                      "packet_loss_rate", "queue_occupancy"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(TelemetryError):
                    make_record(1.0, **{field: bad})

    def test_nan_row_names_the_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(telemetry.CSV_HEADER
                        + "\n10,59,12.5,0.01,0.35,40,low"
                        + "\n11,nan,12.5,0.01,0.35,40,low\n")
        with pytest.raises(TelemetryError, match=r"t\.csv:3: .*finite"):
            ingest_csv(path)

    def test_timestamps_must_strictly_increase(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(telemetry.CSV_HEADER
                        + "\n10,59,12.5,0.01,0.35,40,low"
                        + "\n10,59,12.5,0.01,0.35,40,low\n")
        with pytest.raises(TelemetryError, match="strictly increasing"):
            ingest_csv(path)

    def test_csv_round_trip(self, tmp_path):
        records = make_series(12)
        path = tmp_path / "t.csv"
        write_csv(path, records)
        back = ingest_csv(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.label == b.label
            np.testing.assert_allclose(a.features(), b.features(), atol=1e-6)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TelemetryError, match="not found"):
            ingest_csv(tmp_path / "missing.csv")

    def test_unknown_label_rejected(self):
        with pytest.raises(TelemetryError, match="unknown congestion label"):
            CongestionLevel.parse("extreme")


class TestNormalization:
    def test_fit_min_max_per_feature(self):
        records = [make_record(float(t + 1), throughput_kbps=v)
                   for t, v in enumerate((52.0, 59.0, 70.0))]
        stats = fit_normalization(records_to_matrix(records))
        assert stats.minimum[0] == 52.0
        assert stats.maximum[0] == 70.0

    def test_single_record_degenerate_range(self):
        stats = fit_normalization(records_to_matrix([make_record(1.0)]))
        np.testing.assert_array_equal(stats.minimum, stats.maximum)
        # constant features map to 0
        out = stats.transform(make_record(1.0).features())
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_fit_on_no_rows_rejected(self):
        with pytest.raises(TelemetryError, match="empty"):
            fit_normalization(np.zeros((0, 5)))

    def test_out_of_range_values_clamped(self):
        stats = NormalizationStats([0.0] * 5, [10.0] * 5)
        out = stats.transform(np.array([-5.0, 15.0, 5.0, 0.0, 10.0]))
        np.testing.assert_allclose(out, [0.0, 1.0, 0.5, 0.0, 1.0])

    def test_scalar_normalize_bounds(self):
        stats = NormalizationStats([52.0] * 5, [70.0] * 5)
        out = stats.transform(np.array([52.0, 70.0, 59.0, 59.0, 59.0]))
        assert out[0] == 0.0
        assert out[1] == 1.0
        # 59 with min 52 max 70 -> 7/18
        assert out[2] == pytest.approx(7.0 / 18.0)
        assert out[2] == pytest.approx(0.3889, abs=5e-5)

    def test_constant_range_maps_to_zero(self):
        stats = NormalizationStats([3.0] * 5, [3.0] * 5)
        out = stats.transform(np.array([3.0, 0.0, 9.0, 3.0, -1.0]))
        np.testing.assert_array_equal(out, np.zeros(5))


class TestOneHot:
    def test_definitions(self):
        np.testing.assert_array_equal(one_hot(CongestionLevel.LOW), [1, 0, 0])
        np.testing.assert_array_equal(one_hot(CongestionLevel.MEDIUM),
                                      [0, 1, 0])
        np.testing.assert_array_equal(one_hot(CongestionLevel.HIGH), [0, 0, 1])

    def test_sums_to_one(self):
        for level in CongestionLevel:
            assert one_hot(level).sum() == 1.0


class TestWindowing:
    def identity_stats(self):
        return NormalizationStats([0.0] * 5, [1.0] * 5)

    def test_length_12_gives_2_samples(self):
        samples = window_sequences(make_series(12), self.identity_stats(), 10)
        assert len(samples) == 2

    def test_length_10_is_too_short(self):
        with pytest.raises(TelemetryError, match="too short"):
            window_sequences(make_series(10), self.identity_stats(), 10)

    def test_length_11_target_is_record_10(self):
        series = make_series(11)
        series[10] = make_record(series[10].timestamp_s, occ=0.9,
                                 label=CongestionLevel.HIGH)
        samples = window_sequences(series, self.identity_stats(), 10)
        assert len(samples) == 1
        np.testing.assert_array_equal(samples[0].target, [0, 0, 1])

    def test_window_covers_preceding_records(self):
        series = make_series(12)
        samples = window_sequences(series, self.identity_stats(), 10)
        mat = telemetry.records_to_matrix(series)
        np.testing.assert_allclose(samples[0].inputs, np.clip(mat[0:10], 0, 1))
        np.testing.assert_allclose(samples[1].inputs, np.clip(mat[1:11], 0, 1))


class TestSplit:
    def make_samples(self, n):
        return window_sequences(make_series(n + 10),
                                NormalizationStats([0.0] * 5, [1.0] * 5), 10)

    def test_100_samples_80_10_10(self):
        split = split_dataset(self.make_samples(100), seed=1)
        assert (len(split.train), len(split.validation),
                len(split.test)) == (80, 10, 10)

    def test_10_samples_8_1_1(self):
        split = split_dataset(self.make_samples(10), seed=1)
        assert (len(split.train), len(split.validation),
                len(split.test)) == (8, 1, 1)

    def test_same_seed_same_membership(self):
        samples = self.make_samples(40)
        a = split_dataset(samples, seed=5)
        b = split_dataset(samples, seed=5)
        for part in ("train", "validation", "test"):
            for sa, sb in zip(getattr(a, part), getattr(b, part)):
                np.testing.assert_array_equal(sa.inputs, sb.inputs)

    def test_too_few_samples_rejected(self):
        with pytest.raises(TelemetryError, match="at least 10"):
            split_dataset(self.make_samples(9))

    def test_partition_is_exhaustive(self):
        samples = self.make_samples(37)
        split = split_dataset(samples, seed=2)
        assert len(split) == 37
