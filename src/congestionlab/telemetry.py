"""Telemetry data model and the raw-records -> training-samples pipeline.

One TelemetryRecord summarizes a network over one reporting interval.  Records
become a SampleSet by sliding a stride-1 window of WINDOW records over each
series and min-max normalizing the feature columns (stats fitted on the
training split only); each window is labeled with the congestion level of the
step that immediately follows it.  FEATURE_NAMES, WINDOW and CongestionLevel fix
the model's input and output shape.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
import typing
from dataclasses import dataclass
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
# records per model input: a window of WINDOW records is labeled with the
# next record's congestion level
WINDOW = 10
_field_types = functools.cache(typing.get_type_hints)  # for check_fields

CSV_HEADER = (
    "timestamp_s,throughput_kbps,delay_ms,packet_loss_rate,"
    "queue_occupancy,active_devices,label"
)


class TelemetryError(ValueError):
    """Malformed telemetry input (bad row, bad label, bad ordering)."""


def _has_type(value, hint) -> bool:
    """No bool is an int, nor is any config field a bool; a float may be an
    int, but must be finite."""
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return value is None or _has_type(value, args[0])
    if isinstance(value, bool):
        return False
    if hint is float:  # an int too large for a float is not finite either
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def check_fields(obj, error, positive=(), non_negative=(), fraction=()):
    """Each config dataclass checks itself with this: raise `error` unless every
    field has its annotated type and each named one, unless None, is in range.
    An int in a float field is stored as a float."""
    for name, hint in _field_types(type(obj)).items():
        value = getattr(obj, name)
        rule = (getattr(hint, "__name__", hint) if not _has_type(value, hint)
                else None if value is None
                else "> 0" if name in positive and not value > 0
                else ">= 0" if name in non_negative and not value >= 0
                else "in [0, 1]" if name in fraction and not 0 <= value <= 1
                else None)
        if rule is not None:
            raise error(f"{type(obj).__name__}.{name} must be {rule}, got {value!r}")
        if type(value) is int and float in (hint, *typing.get_args(hint)):
            setattr(obj, name, float(value))  # 40 and 40.0: one config digest


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
    delay_ms: float  # 0 in an interval that delivered nothing
    packet_loss_rate: float
    queue_occupancy: float
    active_devices: int
    label: CongestionLevel

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
        return np.array([getattr(self, name) for name in FEATURE_NAMES],
                        dtype=float)

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
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise TelemetryError(f"{path}: cannot read ({exc})") from None
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
        except ValueError as exc:  # a TelemetryError is a ValueError
            raise TelemetryError(f"{path}:{lineno}: {exc}") from None
        if prev_ts is not None and rec.timestamp_s <= prev_ts:
            raise TelemetryError(
                f"{path}:{lineno}: timestamps not strictly increasing")
        prev_ts = rec.timestamp_s
        records.append(rec)
    return records


def records_to_matrix(records) -> np.ndarray:
    """Stack the feature vectors of a record series into an (n, F) matrix."""
    return np.array([r.features() for r in records]).reshape(-1, FEATURE_COUNT)


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


def one_hot(levels) -> np.ndarray:
    """The one-hot row of a level, or (N, C) rows of N levels."""
    return np.eye(len(CongestionLevel))[np.asarray(levels, dtype=int)]


@dataclass(frozen=True)
class SequenceSample:
    """A normalized T x F input window plus the one-hot label of the next step."""

    inputs: np.ndarray
    target: np.ndarray


@dataclass(frozen=True)
class SampleSet:
    """N windows as two arrays, inputs (N, T, F) and one-hot targets (N, C);
    iterating yields each window as a SequenceSample of views into them."""

    inputs: np.ndarray
    targets: np.ndarray

    def __len__(self):
        return len(self.inputs)

    def __iter__(self):
        return map(SequenceSample, self.inputs, self.targets)


def raw_windows(series_list, window: int = WINDOW) -> SampleSet:
    """Slide a stride-1 window over each series' raw feature rows; the sample
    at position t covers records [t-window, t) and is labeled with record t's
    congestion level, so a series of at most `window` records yields none."""
    inputs, labels = [np.empty((0, window, FEATURE_COUNT))], []
    for records in series_list:
        if len(records) > window:  # the last record is a label, never an input
            cuts = np.lib.stride_tricks.sliding_window_view(  # (n - window, F, window)
                records_to_matrix(records[:-1]), window, axis=0)
            inputs.append(cuts.transpose(0, 2, 1))
            labels += [r.label for r in records[window:]]
    return SampleSet(np.concatenate(inputs), one_hot(labels))


def normalized(samples: SampleSet, stats: NormalizationStats) -> SampleSet:
    """`samples` with their inputs min-max normalized by `stats` in one
    elementwise transform: each window gets the bits of its own transform."""
    return SampleSet(stats.transform(samples.inputs), samples.targets)


@dataclass
class DatasetSplit:
    train: SampleSet
    validation: SampleSet
    test: SampleSet

    def __len__(self):
        return len(self.train) + len(self.validation) + len(self.test)


def split_dataset(samples: SampleSet, seed: int = 0) -> DatasetSplit:
    """Seeded shuffle then contiguous partition into floor(0.8*n) /
    floor(0.1*n) / remainder rows of `samples`, in permutation order."""
    n = len(samples)
    if n < 10:
        raise TelemetryError(f"need at least 10 samples to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(0.8 * n))
    n_val = int(np.floor(0.1 * n))
    return DatasetSplit(*(SampleSet(samples.inputs[idx], samples.targets[idx])
                          for idx in np.split(order, [n_train, n_train + n_val])))
