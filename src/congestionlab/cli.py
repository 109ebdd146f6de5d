"""Operator command suite.

Subcommands: gen-data, train, evaluate, run-experiment, compare, replay.
Configuration is a single JSON file whose sections mirror the module configs
(sim / model / training / policy / fls) plus a master seed; any leaf can be
overridden on the command line with --set section.key=value.  Every command
is deterministic under the master seed.

Exit codes: 0 success, 1 usage/config error, 2 acceptance-check failure
(replay mismatch or training divergence).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from . import checkpoint as ckpt
from . import experiment, metrics, nn, telemetry, training
from .controller import PolicyConfig, write_decision_log
from .simulator import LoadScenario, SimConfig, SimulationError
from .telemetry import TelemetryError


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "master_seed": 42,
    "sim": {},          # SimConfig field overrides
    "model": {},        # ModelConfig field overrides
    "training": {},     # TrainingConfig field overrides
    "policy": {},       # PolicyConfig field overrides
    "window": 10,
    "runs_per_scenario": 1,
    "chronological_split": False,
}


def load_config(path: str | None, overrides: list[str]) -> dict:
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        file_path = Path(path)
        if not file_path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(file_path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        for key, value in loaded.items():
            if isinstance(value, dict) and isinstance(config.get(key), dict):
                config[key].update(value)
            else:
                config[key] = value
    for override in overrides:
        if "=" not in override:
            raise ConfigError(f"override {override!r} must be key=value")
        key, _, raw = override.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = config
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
        target[parts[-1]] = value
    return config


def build_sim_config(config: dict, scenario: LoadScenario, seed: int) -> SimConfig:
    fields = dict(config.get("sim", {}))
    fields.pop("scenario", None)
    fields.pop("seed", None)
    try:
        return SimConfig(scenario=scenario, seed=seed, **fields)
    except (TypeError, SimulationError) as exc:
        raise ConfigError(f"bad sim config: {exc}") from None


def build_model_config(config: dict) -> nn.ModelConfig:
    try:
        return nn.ModelConfig(**config.get("model", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model config: {exc}") from None


def build_training_config(config: dict) -> training.TrainingConfig:
    fields = dict(config.get("training", {}))
    fields.setdefault("seed", experiment.derive_seed(
        config["master_seed"], "train"))
    try:
        return training.TrainingConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad training config: {exc}") from None


def build_policy_config(config: dict) -> PolicyConfig:
    fields = dict(config.get("policy", {}))
    if "score_weights" in fields:
        fields["score_weights"] = tuple(fields["score_weights"])
    try:
        return PolicyConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad policy config: {exc}") from None


def cmd_gen_data(args) -> int:
    config = load_config(args.config, args.set)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    master = config["master_seed"]
    written = []
    for scenario in LoadScenario:
        for run_idx in range(config["runs_per_scenario"]):
            seed = experiment.derive_seed(
                master, f"gen/{scenario.value}/{run_idx}")
            sim_config = build_sim_config(config, scenario, seed)
            records = experiment.generate_telemetry(sim_config)
            name = f"telemetry_{scenario.value}_{run_idx}.csv"
            telemetry.write_csv(out_dir / name, records)
            written.append(name)
    print(f"wrote {len(written)} telemetry files to {out_dir}")
    return 0


def _collect_csv_paths(data_args: list[str]) -> list[Path]:
    paths: list[Path] = []
    for entry in data_args:
        p = Path(entry)
        if p.is_dir():
            paths.extend(sorted(p.glob("telemetry_*.csv")))
        elif p.exists():
            paths.append(p)
        else:
            raise ConfigError(f"data path not found: {entry}")
    if not paths:
        raise ConfigError("no telemetry CSV files found")
    return paths


def cmd_train(args) -> int:
    config = load_config(args.config, args.set)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    series_list = [telemetry.ingest_csv(p) for p in _collect_csv_paths(args.data)]
    trained = experiment.train_pipeline(
        series_list,
        model_config=build_model_config(config),
        training_config=build_training_config(config),
        window=config["window"],
        chronological_split=config["chronological_split"],
    )
    ckpt.save_checkpoint(out_dir / "checkpoint.txt", trained.model, trained.stats)
    (out_dir / "training_report.txt").write_text(trained.report.to_text())
    result = training.evaluate(trained.model, trained.split.test)
    print(f"stopped at epoch {trained.report.stopping_epoch} "
          f"(best {trained.report.best_epoch}); "
          f"test accuracy {result.accuracy:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    config = load_config(args.config, args.set)
    model, stats = ckpt.load_checkpoint(args.checkpoint)
    series_list = [telemetry.ingest_csv(p) for p in _collect_csv_paths(args.data)]
    window = config["window"]
    samples = []
    for series in series_list:
        if len(series) >= window + 1:
            samples.extend(telemetry.window_sequences(series, stats, window))
    if not samples:
        raise ConfigError("no usable windows in the provided data")
    result = training.evaluate(model, samples)
    print(result)
    return 0


def cmd_run_experiment(args) -> int:
    config = load_config(args.config, args.set)
    master = config["master_seed"]
    policy = build_policy_config(config)
    window = config["window"]
    out_dir = Path(args.out_dir)

    model = stats = None
    if args.predictor == "lstm":
        if args.checkpoint is None:
            raise ConfigError("predictor lstm requires --checkpoint")
        model, stats = ckpt.load_checkpoint(args.checkpoint)
        if model.config.features != telemetry.FEATURE_COUNT:
            raise ConfigError(
                f"checkpoint has {model.config.features} features; the "
                f"simulator emits {telemetry.FEATURE_COUNT}")

    scenarios = ([LoadScenario(args.scenario)] if args.scenario
                 else list(LoadScenario))
    for scenario in scenarios:
        # seed depends on scenario only, not predictor: paired comparisons
        seed = experiment.derive_seed(master, f"experiment/{scenario.value}")
        sim_config = build_sim_config(config, scenario, seed)
        controller = experiment.make_controller(
            args.predictor, model=model, stats=stats, policy=policy,
            window=window)
        run = experiment.run_experiment(sim_config, controller, policy=policy)

        run_dir = out_dir / f"{scenario.value}_{args.predictor}"
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.json").write_text(
            json.dumps(dataclasses.asdict(sim_config), default=str, indent=2)
            + "\n")
        telemetry.write_csv(run_dir / "telemetry.csv",
                            run.sim_result.telemetry)
        write_decision_log(run_dir / "decisions.csv", run.decisions)
        (run_dir / "report.txt").write_text(run.report.to_text())
        (run_dir / "intervals.csv").write_text(run.report.intervals_csv())
        (run_dir / "report.json").write_text(json.dumps({
            "scenario": run.report.scenario,
            "predictor": run.report.predictor,
            "seed": run.report.seed,
            "config_digest": run.report.config_digest,
            "summary": dataclasses.asdict(run.report.summary),
        }, indent=2) + "\n")
        print(f"{scenario.value}/{args.predictor}: "
              f"loss {run.report.summary.loss_rate:.4f}, "
              f"mean delay {run.report.summary.mean_delay_ms:.2f} ms, "
              f"throughput {run.report.summary.mean_throughput_kbps:.2f} Kbps")
    return 0


def _load_report(path: str) -> metrics.ExperimentReport:
    """An ExperimentReport (summary only) from a run's report.json."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"report not found: {path}")
    try:
        data = json.loads(p.read_text())
        return metrics.ExperimentReport(
            scenario=data["scenario"], predictor=data["predictor"],
            seed=data["seed"], config_digest=data["config_digest"],
            intervals=[], summary=metrics.RunSummary(**data["summary"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: not a run report ({exc!r})") from None


def cmd_compare(args) -> int:
    reports = [_load_report(path) for path in args.reports]
    if len(reports) < 2:
        raise ConfigError("need at least two reports to compare")
    try:
        rows = [metrics.compare(reports[0], other) for other in reports[1:]]
        lines = [f"{c.scenario},{c.seed},{c.baseline_predictor},"
                 f"{c.other_predictor},{c.loss_delta:.6f},"
                 f"{c.delay_delta_ms:.6f},{c.throughput_delta_kbps:.6f}"
                 for c in rows]
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    print("scenario,seed,baseline,other,loss_delta,delay_delta_ms,"
          "throughput_delta_kbps")
    print("\n".join(lines))
    return 0


def cmd_replay(args) -> int:
    path = Path(args.log)
    if not path.exists():
        raise ConfigError(f"decision log not found: {args.log}")
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"score", "action", "threshold"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigError(f"{args.log}: missing columns "
                              f"{sorted(required)} in decision log")
        rows = list(reader)
    threshold = float(rows[0]["threshold"]) if rows else 0.5
    mismatches = experiment.replay_decisions(rows, threshold=threshold)
    checked = sum(1 for r in rows if r["score"] not in ("", None))
    if mismatches:
        for idx, recorded, recomputed in mismatches:
            print(f"row {idx}: recorded {recorded}, recomputed {recomputed}",
                  file=sys.stderr)
        print(f"{len(mismatches)}/{checked} decisions inconsistent",
              file=sys.stderr)
        return 2
    print(f"{checked} decisions replayed, all consistent")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congestionlab",
        description="IoT congestion-control lab: simulate, train, close the loop.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config leaf, e.g. --set sim.duration_s=60")

    p = sub.add_parser("gen-data", help="generate labeled telemetry CSVs")
    add_common(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the LSTM on telemetry CSVs")
    add_common(p)
    p.add_argument("--data", nargs="+", required=True,
                   help="telemetry CSV files or directories")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on telemetry CSVs")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", nargs="+", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-experiment", help="closed-loop scenario runs")
    add_common(p)
    p.add_argument("--predictor", choices=["lstm", "fls", "none"],
                   required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--scenario", choices=[s.value for s in LoadScenario])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_run_experiment)

    p = sub.add_parser("compare", help="paired deltas between report.json files")
    p.add_argument("reports", nargs="+")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("replay", help="re-check a decision log against decide()")
    p.add_argument("log")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TelemetryError, SimulationError,
            ckpt.CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except training.TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
