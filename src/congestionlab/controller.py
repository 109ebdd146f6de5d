"""Threshold-driven congestion controller.

Every predictor runs the same control step: push the new telemetry record
into a rolling window, issue no action until the window is full, then score
the window on [0,1], round the score to SCORE_DECIMALS and apply the
threshold policy.  A score below the threshold (0.5 by default) means no
action; at or above it, a non-decreasing score triggers traffic shaping and
a declining one a QoS adjustment.  Predictors differ only in their window
and scorer: the LSTM collapses its class probabilities into an
expected congestion level (SCORE_WEIGHTS 0 / 0.5 / 1), the fuzzy baseline
defuzzifies its fixed rule base, and the uncontrolled baseline has no scorer
and never acts.  The controller's `policy` holds the one threshold it decides
by and logs; the weights and decimals are constants, not settings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fls, nn
from .simulator import ControlAction
from .telemetry import (WINDOW, NormalizationStats, TelemetryRecord,
                        check_fields)


# expected congestion level of the LOW / MEDIUM / HIGH class probabilities
SCORE_WEIGHTS = (0.0, 0.5, 1.0)
# Scores are rounded before the rise/fall comparison; raw softmax
# scores jitter at the 1e-6 scale near saturation, which would make
# "declining" fire on numerical noise.  Two decimals matches the
# resolution at which reported predictions are expressed.
SCORE_DECIMALS = 2


@dataclass
class PolicyConfig:
    threshold: float = 0.5

    def __post_init__(self):
        check_fields(self, ValueError)
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0,1)")


def congestion_score(probabilities) -> float:
    """SCORE_WEIGHTS collapse of the class distribution onto [0,1]."""
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (len(SCORE_WEIGHTS),):
        raise ValueError("expected one probability per SCORE_WEIGHTS entry")
    return float(np.dot(p, SCORE_WEIGHTS))


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


class Controller:
    """The one closed-loop control step.  Subclasses supply `score_window`;
    without it this is the uncontrolled baseline, which never acts."""

    predictor_id = "none"
    score_window = None  # (window of observe(record)s) -> score in [0,1]

    def __init__(self, window_length: int = 1,
                 policy: PolicyConfig | None = None):
        self.policy = policy or PolicyConfig()
        self.window: deque = deque(maxlen=window_length)
        self.last_score: float | None = None

    def observe(self, record: TelemetryRecord):  # what the window keeps of it
        return record

    def control_step(self, record: TelemetryRecord) -> ControlAction:
        self.window.append(self.observe(record))
        score = None
        if self.score_window and len(self.window) == self.window.maxlen:
            score = round(self.score_window(self.window), SCORE_DECIMALS)
        return self.act(score)

    def act(self, score: float | None) -> ControlAction:
        """The policy half of a step, which replay runs on its own."""
        action = (ControlAction.NONE if score is None
                  else decide(score, self.last_score, self.policy.threshold))
        self.last_score = score
        return action


class LstmController(Controller):
    """Run the model over the last WINDOW records, normalized with the
    training-time stats, and score its class probabilities."""

    predictor_id = "lstm"

    def __init__(self, model, stats: NormalizationStats,
                 policy: PolicyConfig | None = None):
        if stats.minimum.shape[0] != model.config.features:
            raise ValueError("normalization stats do not match model features")
        super().__init__(WINDOW, policy)
        self.model = model
        self.stats = stats

    def observe(self, record: TelemetryRecord) -> np.ndarray:
        # normalized once, on arrival; the transform is elementwise, so the
        # window's rows have the bits of transforming the window whole
        return self.stats.transform(record.features())

    def score_window(self, window) -> float:
        probs, _ = nn.forward(self.model, np.stack(window), train=False)
        return congestion_score(probs)


class FlsController(Controller):
    """Score the window's queue occupancy with the fuzzy baseline."""

    predictor_id = "fls"

    def __init__(self, policy: PolicyConfig | None = None):
        super().__init__(max(fls.RSI_WINDOW + 1, fls.TREND_WINDOW), policy)

    def score_window(self, window) -> float:
        occupancy = [r.queue_occupancy for r in window]
        # looked up through the module at call time, so wrappers see the calls
        return fls.fls_score(fls.rsi(occupancy, fls.RSI_WINDOW),
                             fls.trend(occupancy, fls.TREND_WINDOW),
                             occupancy[-1])


# every predictor_id, as --predictor and the decision log spell it
PREDICTORS = tuple(cls.predictor_id for cls in
                   (LstmController, FlsController, Controller))

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
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(DECISION_LOG_HEADER + "\n")
        for entry in entries:
            fh.write(entry.csv_row() + "\n")
