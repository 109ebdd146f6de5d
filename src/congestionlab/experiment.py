"""End-to-end pipelines: data generation, training, and closed-loop runs.

A single master seed fans out to labeled sub-seeds (arrivals, parameter init,
shuffle, dropout) through a hash derivation, so switching the predictor never
perturbs the simulated traffic of a paired run.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np

from . import metrics as metrics_mod
from . import nn, simulator, telemetry, training
from .controller import (ControlAction, Controller, DecisionEntry,
                         FlsController, LstmController, PolicyConfig)
from .simulator import SimConfig


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
                   window: int = 10,
                   chronological_split: bool = False) -> TrainedModel:
    """window -> split -> fit stats on the train split -> normalize -> train.

    Raw windows are split before any normalization, so the min/max stats
    are fitted on the rows of the training windows only.  Series shorter
    than window+1 records are skipped.
    """
    raw = telemetry.split_dataset(
        [sample for series in series_list if len(series) > window
         for sample in telemetry.raw_windows(series, window)],
        seed=training_config.seed, chronological=chronological_split)
    stats = telemetry.fit_normalization(
        np.concatenate([sample.inputs for sample in raw.train]))
    split = telemetry.DatasetSplit(*(
        [telemetry.SequenceSample(stats.transform(s.inputs), s.target)
         for s in part] for part in (raw.train, raw.validation, raw.test)))

    model = nn.init_parameters(
        model_config, seed=derive_seed(training_config.seed, "init"))
    model, report = training.train(model, split, training_config)
    return TrainedModel(model=model, stats=stats, report=report, split=split)


def make_controller(predictor: str, model=None, stats=None,
                    policy: PolicyConfig | None = None, fls_config=None,
                    window: int = 10):
    if predictor == "lstm":
        if model is None or stats is None:
            raise ValueError("lstm predictor needs a model and stats")
        return LstmController(model, stats, policy=policy, window_length=window)
    if predictor == "fls":
        return FlsController(fls_config=fls_config, policy=policy)
    if predictor == "none":
        return Controller(policy=policy)
    raise ValueError(f"unknown predictor {predictor!r}")


@dataclass
class ExperimentRun:
    report: metrics_mod.ExperimentReport
    decisions: list[DecisionEntry]
    sim_result: simulator.SimResult


def run_experiment(sim_config: SimConfig, controller,
                   policy: PolicyConfig | None = None) -> ExperimentRun:
    """One closed-loop run: simulator + controller + decision log + report."""
    policy = policy or getattr(controller, "policy", PolicyConfig())
    decisions: list[DecisionEntry] = []

    def hook(record):
        action = controller.control_step(record)
        score = getattr(controller, "last_score", None)
        decisions.append(DecisionEntry(
            time_s=record.timestamp_s,
            score=score,
            threshold=policy.threshold,
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


def replay_decisions(rows: list[dict], threshold: float = 0.5
                     ) -> list[tuple[int, ControlAction, ControlAction]]:
    """Re-run decide() over a decision-log score column; returns mismatches
    as (row_index, recorded, recomputed).  Warm-up rows (empty score) are
    skipped.  A bad score or action, or a recorded threshold other than
    `threshold`, raises ValueError naming the row."""
    from .controller import decide
    mismatches = []
    previous = None
    for idx, row in enumerate(rows):
        try:
            if "threshold" in row and float(row["threshold"]) != threshold:
                raise ValueError(f"threshold {row['threshold']!r} differs "
                                 f"from the log's {threshold}")
            if row["score"] in ("", None):
                previous = None
                continue
            score = float(row["score"])
            recomputed = decide(score, previous, threshold)
            recorded = ControlAction.parse(row["action"] or "")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"row {idx}: {exc}") from None
        if recorded != recomputed:
            mismatches.append((idx, recorded, recomputed))
        previous = score
    return mismatches
