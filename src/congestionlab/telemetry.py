"""Telemetry data model and the raw-records -> training-samples pipeline.

One TelemetryRecord summarizes a network over one reporting interval.  Records
become SequenceSamples by min-max normalizing the feature columns (stats fitted
on the training split only) and sliding a stride-1 window of length T over the
series; each window is labeled with the congestion level of the step that
immediately follows it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

FEATURE_NAMES = (
    "throughput_kbps",
    "delay_ms",
    "packet_loss_rate",
    "queue_occupancy",
    "active_devices",
)
FEATURE_COUNT = len(FEATURE_NAMES)

CSV_HEADER = (
    "timestamp_s,throughput_kbps,delay_ms,packet_loss_rate,"
    "queue_occupancy,active_devices,label"
)


class TelemetryError(ValueError):
    """Malformed telemetry input (bad row, bad label, bad ordering)."""


class CongestionLevel(IntEnum):
    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @classmethod
    def parse(cls, token: str) -> "CongestionLevel":
        try:
            return cls[token.strip().upper()]
        except KeyError:
            raise TelemetryError(f"unknown congestion label {token!r}") from None

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class TelemetryRecord:
    timestamp_s: float
    throughput_kbps: float
    delay_ms: float
    packet_loss_rate: float
    queue_occupancy: float
    active_devices: int
    label: CongestionLevel
    # True when no packet was delivered in the interval, so delay_ms is a
    # placeholder 0 rather than a measurement.  Not part of the CSV schema.
    empty_interval: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.timestamp_s, self.throughput_kbps,
                                       self.delay_ms))):
            raise TelemetryError("timestamp, throughput and delay must be finite")
        if not 0.0 <= self.packet_loss_rate <= 1.0:
            raise TelemetryError(
                f"packet_loss_rate {self.packet_loss_rate} outside [0,1]")
        if not 0.0 <= self.queue_occupancy <= 1.0:
            raise TelemetryError(
                f"queue_occupancy {self.queue_occupancy} outside [0,1]")
        if self.throughput_kbps < 0 or self.delay_ms < 0:
            raise TelemetryError("throughput and delay must be non-negative")
        if self.active_devices < 0:
            raise TelemetryError("active_devices must be non-negative")

    def features(self) -> np.ndarray:
        return np.array([
            self.throughput_kbps,
            self.delay_ms,
            self.packet_loss_rate,
            self.queue_occupancy,
            float(self.active_devices),
        ])

    def csv_row(self) -> str:
        return (f"{self.timestamp_s:.6f},{self.throughput_kbps:.6f},"
                f"{self.delay_ms:.6f},{self.packet_loss_rate:.6f},"
                f"{self.queue_occupancy:.6f},{self.active_devices},"
                f"{self.label}")


def write_csv(path, records) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def ingest_csv(path) -> list[TelemetryRecord]:
    """Read telemetry records from a CSV file, validating as we go."""
    path = Path(path)
    if not path.exists():
        raise TelemetryError(f"telemetry file not found: {path}")
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise TelemetryError(f"{path}: not a UTF-8 CSV file ({exc})") from None
    if not rows:
        raise TelemetryError(f"{path}: empty file, expected header")
    header = rows[0]
    if [h.strip() for h in header] != CSV_HEADER.split(","):
        raise TelemetryError(f"{path}: unexpected header {header}")
    records: list[TelemetryRecord] = []
    prev_ts = None
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 7:
            raise TelemetryError(f"{path}:{lineno}: expected 7 fields, got {len(row)}")
        try:
            rec = TelemetryRecord(
                timestamp_s=float(row[0]),
                throughput_kbps=float(row[1]),
                delay_ms=float(row[2]),
                packet_loss_rate=float(row[3]),
                queue_occupancy=float(row[4]),
                active_devices=int(row[5]),
                label=CongestionLevel.parse(row[6]),
            )
        except TelemetryError as exc:
            raise TelemetryError(f"{path}:{lineno}: {exc}") from None
        except ValueError as exc:
            raise TelemetryError(f"{path}:{lineno}: {exc}") from None
        if prev_ts is not None and rec.timestamp_s <= prev_ts:
            raise TelemetryError(
                f"{path}:{lineno}: timestamps not strictly increasing")
        prev_ts = rec.timestamp_s
        records.append(rec)
    return records


def records_to_matrix(records) -> np.ndarray:
    """Stack the feature vectors of a record series into an (n, F) matrix."""
    if not records:
        return np.zeros((0, FEATURE_COUNT))
    return np.stack([r.features() for r in records])


@dataclass
class NormalizationStats:
    """Per-feature min/max fitted on the training split only."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        self.minimum = np.asarray(self.minimum, dtype=float)
        self.maximum = np.asarray(self.maximum, dtype=float)
        if self.minimum.shape != self.maximum.shape:
            raise ValueError("min/max shape mismatch")
        if np.any(self.maximum < self.minimum):
            raise ValueError("max < min in normalization stats")

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Min-max map to [0,1], clamped; constant features map to 0."""
        values = np.asarray(values, dtype=float)
        span = self.maximum - self.minimum
        safe_span = np.where(span == 0.0, 1.0, span)
        out = (values - self.minimum) / safe_span
        out = np.where(span == 0.0, 0.0, out)
        return np.clip(out, 0.0, 1.0)


def fit_normalization(rows) -> NormalizationStats:
    """Per-feature min/max of an (n, F) feature-row matrix."""
    rows = np.asarray(rows, dtype=float)
    if len(rows) == 0:
        raise TelemetryError("cannot fit normalization on an empty row set")
    return NormalizationStats(rows.min(axis=0), rows.max(axis=0))


def one_hot(level: CongestionLevel) -> np.ndarray:
    out = np.zeros(3)
    out[int(level)] = 1.0
    return out


@dataclass(frozen=True)
class SequenceSample:
    """A normalized T x F input window plus the one-hot label of the next step."""

    inputs: np.ndarray
    target: np.ndarray


def raw_windows(records, window: int = 10) -> list[SequenceSample]:
    """Slide a stride-1 window over the raw feature rows; the sample at
    position t covers records [t-window, t) and is labeled with record t's
    congestion level."""
    if len(records) < window + 1:
        raise TelemetryError(
            f"series length {len(records)} too short for window {window} "
            "(need at least window+1 records)")
    mat = records_to_matrix(records)
    return [SequenceSample(inputs=mat[t - window:t],
                           target=one_hot(records[t].label))
            for t in range(window, len(records))]


def window_sequences(records, stats: NormalizationStats,
                     window: int = 10) -> list[SequenceSample]:
    """raw_windows normalized with `stats`."""
    return [SequenceSample(stats.transform(s.inputs), s.target)
            for s in raw_windows(records, window)]


@dataclass
class DatasetSplit:
    train: list[SequenceSample]
    validation: list[SequenceSample]
    test: list[SequenceSample]

    def __len__(self):
        return len(self.train) + len(self.validation) + len(self.test)


def split_dataset(samples, fractions=(0.8, 0.1, 0.1), seed: int = 0,
                  chronological: bool = False) -> DatasetSplit:
    """Seeded shuffle (or chronological order) then contiguous partition
    into floor(f0*n) / floor(f1*n) / remainder."""
    n = len(samples)
    if n < 10:
        raise TelemetryError(f"need at least 10 samples to split, got {n}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    order = np.arange(n)
    if not chronological:
        rng = np.random.default_rng(seed)
        rng.shuffle(order)
    n_train = int(np.floor(fractions[0] * n))
    n_val = int(np.floor(fractions[1] * n))
    idx_train = order[:n_train]
    idx_val = order[n_train:n_train + n_val]
    idx_test = order[n_train + n_val:]
    return DatasetSplit(
        train=[samples[i] for i in idx_train],
        validation=[samples[i] for i in idx_val],
        test=[samples[i] for i in idx_test],
    )
