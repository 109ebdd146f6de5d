"""The two benchmark workloads.

Each workload runs the whole pipeline (corpus -> training -> checkpoint ->
closed loop) far enough to report every end-to-end metric, and differs in
which stage is the timed phase:

* ``train``: set-up generates the acceptance corpus; the timed phase repeats
  ``experiment.train_pipeline`` (fixed epochs); the output check runs the
  trained model in the paired closed loop.
* ``closed_loop``: set-up generates the corpus, trains the model and passes
  it through the checkpoint files; the timed phase repeats the 10-seed x
  {none, fls, lstm} High-load comparison.

A run is three rounds.  Every round sets up; the first and the last also run
the timed phase (half of --seconds each, at least one pass).  ``train`` runs
its output check in every round.  The repeats of every item thus lie far
apart in time, and each figure is a median over them, so that the machine's
slow and fast spells move it little.

With tracing on, there is one round: set-up runs traced, and the timed phase
alternates untraced and traced passes, so the tracing overhead is measured in
the same process.  The output check is never traced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from congestionlab import training

import pipeline as pl
from layers import LayerTrace
from spans import Patches


@dataclass
class Context:
    sizes: pl.Sizes
    seeds: dict
    seconds: float
    trace: bool
    workdir: Path
    ledger: pl.Ledger = field(default_factory=pl.Ledger)
    layers: LayerTrace | None = None
    report: dict = field(default_factory=lambda: {"digests": {}})
    replay_mismatches: int = 0
    checkpoint_bytes: int = 0
    passes: int = 0

    def __post_init__(self):
        if self.trace:
            self.layers = LayerTrace()

    @property
    def rounds(self) -> int:
        # repeated set-up times only feed end-to-end metrics, which traced
        # runs do not report
        return 1 if self.trace else self.sizes.rounds

    @contextlib.contextmanager
    def traced(self, on: bool = True):
        """Install the layer wrappers for the duration of the block."""
        if not (on and self.trace):
            yield None
            return
        with Patches() as patches:
            self.layers.install(patches)
            yield patches

    def timed(self, round_: int) -> bool:
        """Whether a round runs the timed phase: the first and the last."""
        return round_ in (0, self.rounds - 1)

    def timed_passes(self, one_pass):
        """Repeat one_pass(first, patches) for this round's share of the
        seconds (at least once).  Traced runs alternate untraced and traced
        passes, starting untraced."""
        untraced, traced = [], []
        deadline = perf_counter() + self.seconds / min(self.rounds, 2)
        while True:
            tracing = self.trace and len(traced) < len(untraced)
            with self.traced(tracing) as patches:
                result = one_pass(self.passes == 0, patches)
            self.passes += 1
            (traced if tracing else untraced).append(result)
            if tracing:
                self.layers.counting = False
            if perf_counter() >= deadline and (traced or not self.trace):
                return untraced, traced

    def watcher(self, patches):
        if patches is None:
            return None
        return lambda controller: self.layers.watch_controller(patches, controller)


def _check_repeats(ctx: Context, passes: list[pl.LoopPass]) -> None:
    for other in passes[1:]:
        ctx.ledger.check(pl.same_outputs(passes[0], other),
                         "closed-loop repeat changed losses or scores")
    ctx.report["digests"]["closed_loop"] = passes[0].digests
    ctx.replay_mismatches = sum(d["replay_mismatches"]
                                for d in passes[0].digests.values())


def _keep(repeats: list, new, **drop) -> None:
    """Append a repeat, keeping the large outputs of the first one only, so
    that memory does not depend on how many repeats fit in the time."""
    repeats.append(dataclasses.replace(new, **drop) if repeats else new)


def _check_models(ctx: Context, trained: list[pl.Trained]) -> None:
    digest = trained[0].digest
    ctx.ledger.check(all(t.digest == digest for t in trained),
                     "training repeats differ")
    ctx.report["digests"]["model"] = digest


def _check_corpora(ctx: Context, corpora: list[pl.Corpus], configs) -> None:
    ctx.ledger.check(all(c.arrivals == corpora[0].arrivals for c in corpora),
                     "corpus repeats differ")
    ctx.report["digests"]["corpus_csv"] = pl.corpus_digest(
        corpora[0], configs, ctx.workdir)


def _corpus_rate(corpora: list[pl.Corpus]) -> float:
    return sum(corpora[0].arrivals) / pl.median_total(
        [c.interval_times for c in corpora])


def _loop_items(passes: list[pl.LoopPass]) -> list[list[float]]:
    keys = sorted(passes[0].interval_times)
    return [[t for k in keys for t in p.interval_times[k]] for p in passes]


def _loop_rate(passes: list[pl.LoopPass]) -> float:
    return (sum(passes[0].arrivals.values())
            / pl.median_total(_loop_items(passes)))


def _train_rate(trained: list[pl.Trained], sizes: pl.Sizes) -> float:
    n_train = len(trained[0].result.split.train)
    return n_train * sizes.epochs / pl.median_total(
        [t.step_times for t in trained])


def _end_to_end(ctx: Context, setup_times, sim_rate, train_rate, result,
                decision_passes, loop: pl.LoopPass) -> dict:
    p50, p95, n_decisions = pl.decision_quantiles(decision_passes)
    ctx.report["samples"] = {"rounds": len(setup_times),
                             "timed_passes": ctx.passes,
                             "decision_repeats": len(decision_passes),
                             "timed_decisions": n_decisions}
    return {
        "setup_s": statistics.median(setup_times),
        "sim_packets_per_s": sim_rate,
        "train_samples_per_s": train_rate,
        "test_accuracy": training.evaluate(result.model,
                                           result.split.test).accuracy,
        "decision_p50_us": p50,
        "decision_p95_us": p95,
        "lstm_loss_ratio": pl.loss_ratio(loop, ctx.sizes.pair_seeds),
    }


def _layer_metrics(ctx: Context, result, untraced_items, traced_items) -> dict:
    overhead = (pl.median_total(traced_items)
                / pl.median_total(untraced_items) - 1.0)
    return ctx.layers.metrics(
        result.model.config, pl.training_config(ctx.sizes, 0).clip_norm,
        {"replay_mismatches": ctx.replay_mismatches,
         "checkpoint_bytes": ctx.checkpoint_bytes,
         "overhead": overhead})


def run_train(ctx: Context) -> dict:
    sizes, seeds = ctx.sizes, ctx.seeds
    configs = pl.corpus_configs(sizes, seeds["data"])
    pairs = pl.pair_configs(sizes, seeds["pair"])
    setup_times, corpora, untraced, traced, check = [], [], [], [], []

    def one_pass(first, patches):
        trained = pl.train(corpora[0].series, sizes, seeds["train"], ctx.ledger)
        # only the first pass keeps its model, so that memory does not
        # depend on how many passes fit in the time
        return trained if first else dataclasses.replace(trained, result=None)

    for round_ in range(ctx.rounds):
        with ctx.traced():
            start = perf_counter()
            corpus = pl.generate_corpus(configs, ctx.ledger)
            setup_times.append(perf_counter() - start)
        _keep(corpora, corpus, series=None)
        if ctx.timed(round_):
            done, done_traced = ctx.timed_passes(one_pass)
            untraced += done
            traced += done_traced
        result = untraced[0].result
        # output check, in every round: the trained model in the paired
        # closed loop
        check.append(pl.closed_loop_pass(
            pairs, ("lstm",) if check else ("none", "lstm"), result.model,
            result.stats, ctx.ledger, None if check else ctx.workdir))
    _check_corpora(ctx, corpora, configs)
    _check_models(ctx, untraced + traced)
    _check_repeats(ctx, check)

    if ctx.trace:
        return _layer_metrics(ctx, result, [t.step_times for t in untraced],
                              [t.step_times for t in traced])
    return _end_to_end(ctx, setup_times, _corpus_rate(corpora),
                       _train_rate(untraced, sizes), result, check, check[0])


def run_closed_loop(ctx: Context) -> dict:
    sizes, seeds = ctx.sizes, ctx.seeds
    configs = pl.corpus_configs(sizes, seeds["data"])
    pairs = pl.pair_configs(sizes, seeds["pair"])
    setup_times, corpora, trained, untraced, traced = [], [], [], [], []
    for round_ in range(ctx.rounds):
        with ctx.traced():
            start = perf_counter()
            corpus = pl.generate_corpus(configs, ctx.ledger)
            done = pl.train(corpus.series, sizes, seeds["train"], ctx.ledger)
            model, stats, ctx.checkpoint_bytes = pl.checkpoint_round_trip(
                done.result, ctx.workdir, ctx.ledger)
            setup_times.append(perf_counter() - start)
        _keep(corpora, corpus, series=None)
        _keep(trained, done, result=None)
        if not round_:
            loaded = model, stats
        if not ctx.timed(round_):
            continue
        done, done_traced = ctx.timed_passes(
            lambda first, patches: pl.closed_loop_pass(
                pairs, pl.PREDICTORS, *loaded, ctx.ledger,
                ctx.workdir if first else None, ctx.watcher(patches)))
        untraced += done
        traced += done_traced
    _check_corpora(ctx, corpora, configs)
    _check_models(ctx, trained)
    _check_repeats(ctx, untraced + traced)
    result = trained[0].result

    if ctx.trace:
        return _layer_metrics(ctx, result, _loop_items(untraced),
                              _loop_items(traced))
    return _end_to_end(ctx, setup_times, _loop_rate(untraced),
                       _train_rate(trained, sizes),
                       dataclasses.replace(result, model=loaded[0]),
                       untraced, untraced[0])


WORKLOADS = {"train": run_train, "closed_loop": run_closed_loop}
