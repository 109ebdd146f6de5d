"""End-to-end pipelines: data generation, training, and closed-loop runs.

A single master seed fans out to labeled sub-seeds (arrivals, parameter init,
shuffle, dropout) through a hash derivation, so switching the predictor never
perturbs the simulated traffic of a paired run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

from . import metrics as metrics_mod
from . import nn, simulator, telemetry, training
from .controller import (DECISION_LOG_HEADER, PREDICTORS, Controller,
                         DecisionEntry, FlsController, LstmController,
                         PolicyConfig)
from .simulator import ControlAction, SimConfig


def derive_seed(master_seed: int, label: str) -> int:
    """Deterministic 32-bit sub-seed for one named random stream."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def generate_telemetry(sim_config: SimConfig) -> list[telemetry.TelemetryRecord]:
    """Uncontrolled simulator run producing a labeled telemetry series."""
    return simulator.run(sim_config, controller_hook=None).telemetry


@dataclass
class TrainedModel:
    model: nn.ModelParameters
    stats: telemetry.NormalizationStats
    report: training.TrainingReport
    split: telemetry.DatasetSplit


def train_pipeline(series_list: list[list[telemetry.TelemetryRecord]],
                   model_config: nn.ModelConfig,
                   training_config: training.TrainingConfig,
                   window: int = telemetry.WINDOW) -> TrainedModel:
    """window -> split -> fit stats on the train split -> normalize -> train.

    Raw windows are split before any normalization, so the min/max stats
    are fitted on the rows of the training windows only.
    """
    raw = telemetry.split_dataset(telemetry.raw_windows(series_list, window),
                                  seed=training_config.seed)
    stats = telemetry.fit_normalization(
        raw.train.inputs.reshape(-1, telemetry.FEATURE_COUNT))
    split = telemetry.DatasetSplit(*(telemetry.normalized(part, stats)
                                     for part in (raw.train, raw.validation,
                                                  raw.test)))
    del raw  # training reads only the normalized split

    model = nn.init_parameters(
        model_config, seed=derive_seed(training_config.seed, "init"))
    model, report = training.train(model, split, training_config)
    return TrainedModel(model=model, stats=stats, report=report, split=split)


def make_controller(predictor: str, model=None, stats=None,
                    policy: PolicyConfig | None = None):
    if predictor == LstmController.predictor_id:
        if model is None or stats is None:
            raise ValueError(f"{predictor} predictor needs a model and stats")
        return LstmController(model, stats, policy=policy)
    for cls in (FlsController, Controller):
        if predictor == cls.predictor_id:
            return cls(policy=policy)
    raise ValueError(f"unknown predictor {predictor!r}")


@dataclass
class ExperimentRun:
    report: metrics_mod.ExperimentReport
    decisions: list[DecisionEntry]
    sim_result: simulator.SimResult


def run_experiment(sim_config: SimConfig,
                   controller: Controller) -> ExperimentRun:
    """One closed-loop run: simulator + controller + decision log + report."""
    decisions: list[DecisionEntry] = []

    def hook(record):
        action = controller.control_step(record)
        decisions.append(DecisionEntry(
            time_s=record.timestamp_s,
            score=controller.last_score,
            threshold=controller.policy.threshold,
            action=action,
            throughput_kbps=record.throughput_kbps,
            predictor=controller.predictor_id,
        ))
        return action

    result = simulator.run(sim_config, controller_hook=hook)
    intervals = [metrics_mod.interval_metrics(stats, sim_config)
                 for stats in result.intervals]
    report = metrics_mod.ExperimentReport(
        scenario=sim_config.scenario.value,
        predictor=controller.predictor_id,
        seed=sim_config.seed,
        config_digest=metrics_mod.config_digest(dataclasses.asdict(sim_config)),
        intervals=intervals,
        summary=metrics_mod.aggregate(intervals),
    )
    return ExperimentRun(report=report, decisions=decisions, sim_result=result)


def replay_decisions(rows: list[dict], threshold: float | None = None
                     ) -> list[tuple[int, ControlAction, ControlAction]]:
    """Check every decision-log row in one pass and feed its score (None when
    empty) to one Controller's policy step at `threshold`, else row 0's;
    returns (row_index, recorded, recomputed) mismatches.  A row off the
    writer's format, or whose threshold or predictor differs from row 0's,
    raises ValueError naming the row."""
    fields = set(DECISION_LOG_HEADER.split(","))
    mismatches = []
    previous = -math.inf
    for idx, row in enumerate(rows):
        try:
            if row.keys() != fields or None in row.values():
                raise ValueError("missing or extra fields")
            time_s, kbps, logged = (float(row[key]) for key in
                                    ("time_s", "throughput_kbps", "threshold"))
            if not (math.isfinite(time_s) and time_s > previous):
                raise ValueError(f"time_s {row['time_s']!r} is not a finite "
                                 "time after the previous row's")
            if not (math.isfinite(kbps) and kbps >= 0):
                raise ValueError(f"throughput_kbps {row['throughput_kbps']!r}"
                                 " is not a finite non-negative number")
            if row["predictor"] not in PREDICTORS:
                raise ValueError(f"predictor {row['predictor']!r} is not one "
                                 f"of {PREDICTORS}")
            if idx == 0:
                policy = PolicyConfig(
                    logged if threshold is None else threshold)
                controller = Controller(policy=policy)
            if logged != policy.threshold:
                raise ValueError(f"threshold {row['threshold']!r} differs "
                                 f"from the log's {policy.threshold}")
            if row["predictor"] != rows[0]["predictor"]:
                raise ValueError(f"predictor {row['predictor']!r} differs "
                                 f"from the log's {rows[0]['predictor']!r}")
            recomputed = controller.act(
                float(row["score"]) if row["score"] else None)
            recorded = ControlAction.parse(row["action"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"row {idx}: {exc}") from None
        if recorded != recomputed:
            mismatches.append((idx, recorded, recomputed))
        previous = time_s
    return mismatches
