"""The benchmark's pipeline stages and their output checks.

Every stage calls the package's public API exactly as the command line does:
`experiment.generate_telemetry` for the corpus, `experiment.train_pipeline`
for training, `save_checkpoint`/`load_checkpoint` for the model hand-over and
`experiment.run_experiment` for the closed loop.  The benchmark only wraps a
few functions to read the clock or a result; it changes no behaviour.

Timings are made robust to a shared, noisy CPU: a stage is split into items
of a few milliseconds that repeat identically (one telemetry interval of a
simulator run, one training step, one controller decision), each item is
timed in every repeat, and a figure is built from each item's median repeat.
A shared machine runs the same work 1.1x to 1.8x slower than its fastest for
seconds to minutes at a time, and fast moments are rare; a minimum over a few
repeats jumps between fast and slow readings, a median follows the typical
speed of the run.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from congestionlab import checkpoint, experiment, nn, simulator, telemetry, training
from congestionlab.controller import write_decision_log
from congestionlab.simulator import LoadScenario, SimConfig

from spans import Patches

# acceptance-gate seeds (tests/test_acceptance.py); --seed n shifts all three
GATE_SEEDS = {"data": 123, "train": 11, "pair": 999}
PREDICTORS = ("none", "fls", "lstm")


@dataclass(frozen=True)
class Sizes:
    corpus_runs: int = 17           # per load tier: 3 x 17 = 51 runs
    corpus_duration_s: float = 110.0
    epochs: int = 5
    pair_seeds: int = 10
    pair_duration_s: float = 300.0
    rounds: int = 3                 # set-ups; the first and last are timed


TINY = Sizes(corpus_runs=2, corpus_duration_s=40.0, epochs=1, pair_seeds=2,
             pair_duration_s=150.0, rounds=2)


def workload_seeds(seed: int) -> dict[str, int]:
    return {name: base + seed for name, base in GATE_SEEDS.items()}


@dataclass
class Ledger:
    """Operations attempted and failed, with one line per failure."""
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def median_total(repeats: list[list[float]]) -> float:
    """Sum over items of each item's median time across repeats."""
    return sum(statistics.median(item) for item in zip(*repeats))


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def intervals_between(start: float, marks: list[float], end: float
                      ) -> list[float]:
    edges = [start] + marks + [end]
    return [b - a for a, b in zip(edges, edges[1:])]


@contextlib.contextmanager
def interval_clock():
    """Clock reads at every telemetry-interval boundary of simulator runs
    (simulator.run labels each interval once), so that a run splits into
    items of a few milliseconds that repeat identically."""
    marks: list[float] = []
    with Patches() as patches:
        def mark(label):
            def wrapper(occupancy):
                marks.append(perf_counter())
                return label(occupancy)
            return wrapper
        patches.wrap(simulator, "label_congestion", mark)
        yield marks


def counters_balance(counters: dict) -> bool:
    return (counters["conservation_violations"] == 0
            and counters["injected"] == counters["delivered"]
            + counters["dropped"] + counters["queued"] + counters["in_flight"])


# ---------------------------------------------------------------------------
# corpus


def corpus_configs(sizes: Sizes, data_seed: int) -> list[SimConfig]:
    """The acceptance corpus: every load tier, 1 s telemetry intervals."""
    base = SimConfig(duration_s=sizes.corpus_duration_s,
                     telemetry_interval_s=1.0, seed=0)
    return [dataclasses.replace(
                base, scenario=scenario,
                seed=experiment.derive_seed(data_seed,
                                            f"gen/{scenario.value}/{k}"))
            for scenario in LoadScenario for k in range(sizes.corpus_runs)]


@dataclass
class Corpus:
    series: list | None
    interval_times: list[float]     # every interval of every run, in order
    arrivals: list[int]


def generate_corpus(configs, ledger: Ledger) -> Corpus:
    """One uncontrolled run per config through experiment.generate_telemetry;
    a wrapper on simulator.run keeps each run's counters for the checks."""
    results = []
    corpus = Corpus([], [], [])
    with Patches() as patches, interval_clock() as marks:
        def keep_result(run):
            def wrapper(*args, **kwargs):
                result = run(*args, **kwargs)
                results.append(result.counters)
                return result
            return wrapper
        patches.wrap(simulator, "run", keep_result)
        for config in configs:
            marks.clear()
            start = perf_counter()
            corpus.series.append(experiment.generate_telemetry(config))
            corpus.interval_times += intervals_between(start, marks,
                                                       perf_counter())
    for config, counters in zip(configs, results):
        ledger.check(counters_balance(counters),
                     f"corpus run {config.scenario.value}/{config.seed}: "
                     f"counters {counters}")
        corpus.arrivals.append(counters["injected"] + counters["suppressed"])
    return corpus


def corpus_digest(corpus: Corpus, configs, workdir: Path) -> str:
    """SHA-256 over the telemetry CSVs, named and ordered as gen-data names
    them, that the corpus would be written as."""
    out = workdir / "corpus"
    out.mkdir(parents=True, exist_ok=True)
    paths, runs = [], {}
    for config, series in zip(configs, corpus.series):
        tier = config.scenario.value
        path = out / f"telemetry_{tier}_{runs.setdefault(tier, 0)}.csv"
        runs[tier] += 1
        telemetry.write_csv(path, series)
        paths.append(path)
    return sha256_files(paths)


# ---------------------------------------------------------------------------
# training


def training_config(sizes: Sizes, train_seed: int) -> training.TrainingConfig:
    # patience above the epoch count: early stopping never cuts the work
    return training.TrainingConfig(learning_rate=0.001, max_epochs=sizes.epochs,
                                   batch_size=32, patience=sizes.epochs + 1,
                                   seed=train_seed)


@dataclass
class Trained:
    result: experiment.TrainedModel | None  # kept for the first repeat only
    step_times: list[float]     # wall time between consecutive Adam steps
    digest: str                 # of the trained parameters


def train(series, sizes: Sizes, train_seed: int, ledger: Ledger) -> Trained:
    """experiment.train_pipeline, with a clock read after every Adam step so
    that the run splits into items that repeat identically.  A non-finite
    loss raises training.TrainingDivergedError, which fails the run."""
    marks: list[float] = []
    with Patches() as patches:
        def mark(adam_step):
            def wrapper(*args, **kwargs):
                out = adam_step(*args, **kwargs)
                marks.append(perf_counter())
                return out
            return wrapper
        patches.wrap(training, "adam_step", mark)
        start = perf_counter()
        result = experiment.train_pipeline(
            series, nn.ModelConfig(), training_config(sizes, train_seed))
        end = perf_counter()
    report = result.report
    losses = report.train_loss + report.val_loss
    ledger.check(all(math.isfinite(x) for x in losses)
                 and report.stopping_epoch == sizes.epochs,
                 f"training report not finite or stopped early: {report.to_text()}")
    return Trained(result, intervals_between(start, marks, end),
                   model_digest(result.model))


def model_digest(model: nn.ModelParameters) -> str:
    return hashlib.sha256(nn.flatten_parameters(model).tobytes()).hexdigest()


def split_probabilities(model, split) -> np.ndarray:
    inputs, _ = training.stack_samples(split.test)
    probs, _ = nn.forward_batch(model, inputs, train=False)
    return probs


def checkpoint_round_trip(trained: experiment.TrainedModel, workdir: Path,
                          ledger: Ledger):
    """save_checkpoint then load_checkpoint, as `train` and `run-experiment`
    do; the loaded model must give the in-memory model's probabilities."""
    path = workdir / "checkpoint.txt"
    checkpoint.save_checkpoint(path, trained.model, trained.stats)
    model, stats = checkpoint.load_checkpoint(path)
    same = (np.array_equal(split_probabilities(model, trained.split),
                           split_probabilities(trained.model, trained.split))
            and np.array_equal(stats.minimum, trained.stats.minimum)
            and np.array_equal(stats.maximum, trained.stats.maximum))
    ledger.check(same, "checkpoint round trip changed the model")
    return model, stats, path.stat().st_size


# ---------------------------------------------------------------------------
# closed loop


def pair_configs(sizes: Sizes, pair_seed: int) -> list[SimConfig]:
    return [SimConfig(scenario=LoadScenario.HIGH,
                      duration_s=sizes.pair_duration_s,
                      seed=experiment.derive_seed(pair_seed, f"pair/{s}"))
            for s in range(sizes.pair_seeds)]


@dataclass
class LoopPass:
    interval_times: dict = field(default_factory=dict)  # (seed, predictor) -> [s]
    arrivals: dict = field(default_factory=dict)
    loss: dict = field(default_factory=dict)
    scores: dict = field(default_factory=dict)        # lstm decision scores
    decision_times: dict = field(default_factory=dict)  # seed -> [s]
    digests: dict = field(default_factory=dict)


def closed_loop_pass(configs, predictors, model, stats, ledger: Ledger,
                     workdir: Path | None = None, on_controller=None
                     ) -> LoopPass:
    """One run per (seed, predictor), each split at its interval boundaries.
    The lstm controller's control_step is timed on the instance; scored
    decisions are the ones with a score.  With a workdir, each run's
    telemetry.csv and decisions.csv are written, hashed and replayed through
    experiment.replay_decisions."""
    out = LoopPass()
    runs = [(s, config, predictor) for s, config in enumerate(configs)
            for predictor in predictors]
    with interval_clock() as marks:
        for s, config, predictor in runs:
            controller = experiment.make_controller(predictor, model=model,
                                                    stats=stats)
            times: list[float] = []
            if predictor == "lstm":
                step = controller.control_step

                def timed_step(record, step=step, controller=controller):
                    start = perf_counter()
                    action = step(record)
                    if controller.last_score is not None:
                        times.append(perf_counter() - start)
                    return action
                controller.control_step = timed_step
            if on_controller is not None:
                on_controller(controller)
            marks.clear()
            start = perf_counter()
            run = experiment.run_experiment(config, controller)
            key = (s, predictor)
            out.interval_times[key] = intervals_between(start, marks,
                                                        perf_counter())
            counters = run.sim_result.counters
            ledger.check(counters_balance(counters),
                         f"closed-loop run {key}: counters {counters}")
            out.arrivals[key] = counters["injected"] + counters["suppressed"]
            out.loss[key] = run.report.summary.loss_rate
            if predictor == "lstm":
                out.decision_times[s] = times
                out.scores[s] = [d.score for d in run.decisions]
            if workdir is not None:
                out.digests[f"{s}/{predictor}"] = replay_check(
                    run, workdir / f"{s}_{predictor}", ledger)
    return out


def replay_check(run, run_dir: Path, ledger: Ledger) -> dict:
    """Write the run directory files the CLI writes, replay the decision log
    as `congestionlab replay` does, and hash both files."""
    run_dir.mkdir(parents=True, exist_ok=True)
    telemetry_csv = run_dir / "telemetry.csv"
    decisions_csv = run_dir / "decisions.csv"
    telemetry.write_csv(telemetry_csv, run.sim_result.telemetry)
    write_decision_log(decisions_csv, run.decisions)
    with decisions_csv.open("r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    threshold = float(rows[0]["threshold"]) if rows else 0.5
    mismatches = experiment.replay_decisions(rows, threshold=threshold)
    ledger.check(not mismatches,
                 f"replay of {run_dir.name}: {len(mismatches)} mismatches")
    return {"telemetry.csv": sha256_files([telemetry_csv]),
            "decisions.csv": sha256_files([decisions_csv]),
            "replay_mismatches": len(mismatches)}


def loss_ratio(loop: LoopPass, seeds: int) -> float:
    """Median pooled loss of lstm over the paired seeds / that of none."""
    lstm = statistics.median(loop.loss[(s, "lstm")] for s in range(seeds))
    none = statistics.median(loop.loss[(s, "none")] for s in range(seeds))
    return lstm / none


def decision_quantiles(passes: list[LoopPass]) -> tuple[float, float, int]:
    """p50 and p95 in microseconds over every timed scored decision of every
    repeat, plus the number of timed decisions."""
    times = [t for p in passes for seed in sorted(p.decision_times)
             for t in p.decision_times[seed]]
    p50, p95 = np.percentile(times, [50, 95]) * 1e6
    return float(p50), float(p95), len(times)


def same_outputs(first: LoopPass, other: LoopPass) -> bool:
    """A repeat reproduces the first pass's losses and lstm scores."""
    common = set(first.loss) & set(other.loss)
    return (all(first.loss[k] == other.loss[k] for k in common)
            and first.scores == other.scores)
