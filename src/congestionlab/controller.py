"""Threshold-driven congestion controller.

Every predictor runs the same control step: push the new telemetry record
into a rolling window, issue no action until the window is full, then score
the window on [0,1], quantize the score and apply the threshold policy.  A
score below the 0.5 threshold means no action; at or above the threshold, a
non-decreasing score triggers traffic shaping and a declining one a QoS
adjustment.  Predictors differ only in their window length and scorer: the
LSTM collapses its class probabilities into an expected congestion level
(weights 0 / 0.5 / 1 by default), the fuzzy baseline defuzzifies its rule
base, and the uncontrolled baseline has no scorer and never acts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import fls, nn
from .telemetry import NormalizationStats, TelemetryRecord, records_to_matrix


class ControlAction(Enum):
    NONE = "none"
    TRAFFIC_SHAPING = "traffic_shaping"
    QOS_ADJUSTMENT = "qos_adjustment"

    @classmethod
    def parse(cls, token: str) -> "ControlAction":
        return cls(token.strip().lower())

    def __str__(self) -> str:
        return self.value


@dataclass
class PolicyConfig:
    threshold: float = 0.5
    score_weights: tuple[float, float, float] = (0.0, 0.5, 1.0)
    # Scores are quantized before the rise/fall comparison; raw softmax
    # scores jitter at the 1e-6 scale near saturation, which would make
    # "declining" fire on numerical noise.  Two decimals matches the
    # resolution at which reported predictions are expressed.
    score_decimals: int | None = 2

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0,1)")
        w = self.score_weights
        if not (0.0 <= w[0] <= w[1] <= w[2] <= 1.0):
            raise ValueError("score weights must be non-decreasing within [0,1]")

    def quantize(self, score: float) -> float:
        if self.score_decimals is None:
            return score
        return round(score, self.score_decimals)


def congestion_score(probabilities,
                     weights: tuple[float, float, float] = (0.0, 0.5, 1.0)
                     ) -> float:
    """Weighted collapse of the 3-class distribution onto [0,1]."""
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (3,):
        raise ValueError("expected a 3-class probability vector")
    return float(np.dot(p, weights))


def decide(score: float, previous_score: float | None = None,
           threshold: float = 0.5) -> ControlAction:
    """Threshold/trend policy.  Below threshold: nothing.  At or above it:
    shape when the score is not falling, adjust QoS when it is."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score} outside [0,1]")
    if score < threshold:
        return ControlAction.NONE
    if previous_score is None or score >= previous_score:
        return ControlAction.TRAFFIC_SHAPING
    return ControlAction.QOS_ADJUSTMENT


@dataclass
class ControllerState:
    window_length: int
    previous_score: float | None = None
    window: deque = field(default_factory=deque)

    def push(self, record: TelemetryRecord) -> None:
        self.window.append(record)
        while len(self.window) > self.window_length:
            self.window.popleft()

    @property
    def warmed_up(self) -> bool:
        return len(self.window) >= self.window_length


class Controller:
    """The one closed-loop control step.  Subclasses supply `score_window`;
    without it this is the uncontrolled baseline, which never acts."""

    predictor_id = "none"
    score_window = None  # (window of records) -> score in [0,1]

    def __init__(self, window_length: int = 1,
                 policy: PolicyConfig | None = None):
        self.policy = policy or PolicyConfig()
        self.state = ControllerState(window_length=window_length)
        self.last_score: float | None = None

    def control_step(self, record: TelemetryRecord) -> ControlAction:
        self.state.push(record)
        if self.score_window is None or not self.state.warmed_up:
            self.last_score = None
            return ControlAction.NONE
        score = self.policy.quantize(self.score_window(self.state.window))
        action = decide(score, self.state.previous_score, self.policy.threshold)
        self.state.previous_score = score
        self.last_score = score
        return action


class LstmController(Controller):
    """Normalize the window with the training-time stats, run the model and
    score its class probabilities."""

    predictor_id = "lstm"

    def __init__(self, model, stats: NormalizationStats,
                 policy: PolicyConfig | None = None, window_length: int = 10):
        if stats.minimum.shape[0] != model.config.features:
            raise ValueError("normalization stats do not match model features")
        super().__init__(window_length, policy)
        self.model = model
        self.stats = stats

    def score_window(self, window) -> float:
        inputs = self.stats.transform(records_to_matrix(list(window)))
        probs, _ = nn.forward(self.model, inputs, train=False)
        return congestion_score(probs, self.policy.score_weights)


class FlsController(Controller):
    """Score the window's queue occupancy with the fuzzy baseline."""

    predictor_id = "fls"

    def __init__(self, fls_config=None, policy: PolicyConfig | None = None):
        self.config = fls_config or fls.FlsConfig()
        super().__init__(max(self.config.rsi_window + 1,
                             self.config.trend_window), policy)

    def score_window(self, window) -> float:
        occupancy = [r.queue_occupancy for r in window]
        return fls.fls_score(fls.rsi(occupancy, self.config.rsi_window),
                             fls.trend(occupancy, self.config.trend_window),
                             occupancy[-1], self.config)


DECISION_LOG_HEADER = "time_s,score,threshold,action,throughput_kbps,predictor"


@dataclass
class DecisionEntry:
    time_s: float
    score: float | None
    threshold: float
    action: ControlAction
    throughput_kbps: float
    predictor: str

    def csv_row(self) -> str:
        score = "" if self.score is None else f"{self.score:.6f}"
        return (f"{self.time_s:.6f},{score},{self.threshold:.6f},"
                f"{self.action},{self.throughput_kbps:.6f},{self.predictor}")


def write_decision_log(path, entries) -> None:
    from pathlib import Path
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(DECISION_LOG_HEADER + "\n")
        for entry in entries:
            fh.write(entry.csv_row() + "\n")
