"""Operator command suite.

Subcommands: gen-data, train, evaluate, run-experiment, compare, replay.
Configuration is a single JSON file read into one RunConfig: two top-level
scalars plus the sections sim / model / training / policy, one per module
config (policy holds only the threshold); any leaf can be overridden with
--set section.key=value.  Every field is type- and range-checked, and the
keys the commands derive (sim.scenario, sim.seed, training.seed,
model.features, model.classes) are refused, as is any unknown key such as
window (telemetry.WINDOW); any ConfigError surfaces before a command writes
output.  evaluate reads no config, only its checkpoint.  compare likewise
refuses a report.json field of the wrong type or a non-finite number, and a
pair of reports whose scenario, seed or config digest differ.  replay
refuses a log with another header or no rows, then checks every row in one
pass, experiment.replay_decisions (the library's replay too): each field,
predictor included, and the action that the controller's policy step gives
for the logged score, so an unscored row must record none.  Every command
is deterministic under the master seed.

Exit codes: 0 success, 1 usage/config error (argparse's usage errors too),
2 acceptance-check failure (replay mismatch or training divergence).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from . import checkpoint as ckpt
from . import experiment, metrics, telemetry, training
from .controller import (DECISION_LOG_HEADER, PREDICTORS, LstmController,
                         PolicyConfig, write_decision_log)
from .nn import ModelConfig
from .simulator import LoadScenario, SimConfig, SimulationError
from .telemetry import TelemetryError, check_fields
from .training import TrainingConfig


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class RunConfig:
    """The whole run configuration; training.seed derives from master_seed."""
    master_seed: int = 42
    runs_per_scenario: int = 1
    sim: SimConfig = dataclasses.field(default_factory=SimConfig)
    model: ModelConfig = dataclasses.field(default_factory=ModelConfig)
    training: TrainingConfig = dataclasses.field(default_factory=TrainingConfig)
    policy: PolicyConfig = dataclasses.field(default_factory=PolicyConfig)

    def __post_init__(self):
        check_fields(self, ConfigError, positive=("runs_per_scenario",))
        for scenario in LoadScenario:  # the commands set it, before any output
            dataclasses.replace(self.sim, scenario=scenario)
        self.training = dataclasses.replace(self.training, seed=(
            experiment.derive_seed(self.master_seed, "train")))


# section -> (its class, its keys derived per run, from master_seed or by schema)
SECTIONS = {"sim": (SimConfig, {"scenario", "seed"}),
            "model": (ModelConfig, {"features", "classes"}),
            "training": (TrainingConfig, {"seed"}), "policy": (PolicyConfig, set())}


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    config = {}
    if path is not None:
        try:
            config = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: JSON or UTF-8
            raise ConfigError(f"{path}: cannot read ({exc})") from None
        if not isinstance(config, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
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
            if not isinstance(target, dict):
                raise ConfigError(f"override {override!r}: {part!r} is not "
                                  "a section")
        target[parts[-1]] = value
    try:
        for name, (section, derived) in SECTIONS.items():
            fields = config.get(name, {})
            if not isinstance(fields, dict):
                raise ConfigError(f"{name!r} must be an object, got {fields!r}")
            if fields.keys() & derived:
                raise ConfigError(f"{name} keys {fields.keys() & derived} are derived")
            config[name] = section(**fields)
        return RunConfig(**config)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from None


def cmd_gen_data(args) -> int:
    config = load_config(args.config, args.set)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for scenario in LoadScenario:
        for run_idx in range(config.runs_per_scenario):
            seed = experiment.derive_seed(
                config.master_seed, f"gen/{scenario.value}/{run_idx}")
            records = experiment.generate_telemetry(dataclasses.replace(
                config.sim, scenario=scenario, seed=seed))
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
    series_list = [telemetry.ingest_csv(p) for p in _collect_csv_paths(args.data)]
    trained = experiment.train_pipeline(series_list, config.model,
                                        config.training)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt.save_checkpoint(out_dir / "checkpoint.txt", trained.model, trained.stats)
    (out_dir / "training_report.txt").write_text(trained.report.to_text())
    result = training.evaluate(trained.model, trained.split.test)
    print(f"stopped at epoch {trained.report.stopping_epoch} "
          f"(best {trained.report.best_epoch}); "
          f"test accuracy {result.accuracy:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    model, stats = ckpt.load_checkpoint(args.checkpoint)
    series_list = [telemetry.ingest_csv(p) for p in _collect_csv_paths(args.data)]
    samples = telemetry.normalized(telemetry.raw_windows(series_list), stats)
    if not samples:
        raise ConfigError("no usable windows in the provided data")
    print(training.evaluate(model, samples))
    return 0


def cmd_run_experiment(args) -> int:
    config = load_config(args.config, args.set)
    out_dir = Path(args.out_dir)

    model = stats = None
    if args.predictor == LstmController.predictor_id:
        if args.checkpoint is None:
            raise ConfigError("predictor lstm requires --checkpoint")
        model, stats = ckpt.load_checkpoint(args.checkpoint)

    scenarios = ([LoadScenario(args.scenario)] if args.scenario
                 else list(LoadScenario))
    for scenario in scenarios:
        # seed depends on scenario only, not predictor: paired comparisons
        seed = experiment.derive_seed(config.master_seed,
                                      f"experiment/{scenario.value}")
        sim_config = dataclasses.replace(config.sim, scenario=scenario, seed=seed)
        controller = experiment.make_controller(
            args.predictor, model=model, stats=stats, policy=config.policy)
        run = experiment.run_experiment(sim_config, controller)

        run_dir = out_dir / f"{scenario.value}_{args.predictor}"
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.json").write_text(json.dumps(
            dataclasses.asdict(sim_config) | {"scenario": scenario.value},
            indent=2) + "\n")
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
    try:
        data = json.loads(Path(path).read_text())
        summary = metrics.RunSummary(**data["summary"])
        check_fields(summary, ConfigError)
        if type(data["seed"]) is not int or not all(isinstance(data[key], str)
                for key in ("scenario", "predictor", "config_digest")):
            raise ConfigError("seed must be an int, scenario, predictor and "
                              "config_digest str")
        return metrics.ExperimentReport(
            scenario=data["scenario"], predictor=data["predictor"],
            seed=data["seed"], config_digest=data["config_digest"],
            intervals=[], summary=summary)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: cannot read report ({exc!r})") from None


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
    try:
        with open(args.log, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != DECISION_LOG_HEADER.split(","):
                raise ConfigError(f"{args.log}: unexpected header "
                                  f"{reader.fieldnames}, expected "
                                  f"{DECISION_LOG_HEADER}")
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{args.log}: cannot read ({exc})") from None
    if not rows:
        raise ConfigError(f"{args.log}: no decisions, only a header")
    try:
        mismatches = experiment.replay_decisions(rows)
    except ValueError as exc:
        raise ConfigError(f"{args.log}: {exc}") from None
    if mismatches:
        for idx, recorded, recomputed in mismatches:
            print(f"row {idx}: recorded {recorded}, recomputed {recomputed}",
                  file=sys.stderr)
        print(f"{len(mismatches)}/{len(rows)} decisions inconsistent",
              file=sys.stderr)
        return 2
    print(f"{len(rows)} decisions replayed, all consistent")
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
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", nargs="+", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-experiment", help="closed-loop scenario runs")
    add_common(p)
    p.add_argument("--predictor", choices=PREDICTORS, required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--scenario", choices=[s.value for s in LoadScenario])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_run_experiment)

    p = sub.add_parser("compare", help="paired deltas between report.json files")
    p.add_argument("reports", nargs="+")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("replay", help="re-run a decision log's policy steps")
    p.add_argument("log")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, TelemetryError, SimulationError,
            ckpt.CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except training.TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
