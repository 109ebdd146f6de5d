"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import numpy as np  # noqa: E402

import pipeline as pl  # noqa: E402
from congestionlab import (checkpoint, controller, experiment, fls,  # noqa: E402
                           metrics, nn, simulator, telemetry, training)
from spans import Patches, Spans  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MODULES = (checkpoint, controller, experiment, fls, metrics, nn, simulator,
           telemetry, training)


def snapshot():
    return {m.__name__: dict(vars(m)) for m in MODULES}


@pytest.fixture(scope="module")
def tiny_runs():
    """Every workload, untraced and traced, at tiny sizes; plus the package's
    module attributes before and after."""
    before = snapshot()
    results = {(w, trace): run.run(w, 0, 0.2, trace, sizes=pl.TINY)
               for w in WORKLOADS for trace in (False, True)}
    return results, before, snapshot()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(tiny_runs, workload, trace):
    result, report = tiny_runs[0][(workload, trace)]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    assert set(report["digests"]) == {"corpus_csv", "model", "closed_loop"}


def test_traced_run_restores_every_wrapped_attribute(tiny_runs):
    _, before, after = tiny_runs
    for module, attrs in before.items():
        changed = [k for k in attrs if after[module].get(k) is not attrs[k]]
        assert not changed, (module, changed)


def test_traced_run_reports_layers_it_enters(tiny_runs):
    layers = tiny_runs[0][("closed_loop", True)][0]["metrics"]
    for name in ("simulator.loop_ns_per_packet", "nn.forward_us",
                 "nn.forward_batch_ms", "training.backward_ms",
                 "controller.decision_us.lstm", "fls.score_us",
                 "metrics.interval_ms", "checkpoint.load_ms"):
        assert layers[name]["value"] > 0, name
    train = tiny_runs[0][("train", True)][0]["metrics"]
    # the train workload's timed phase bypasses the controller layers
    for name in ("controller.decision_us.lstm", "fls.score_us",
                 "metrics.interval_ms", "checkpoint.bytes"):
        assert train[name]["value"] == 0, name


def test_replay_mismatch_counts_as_failed(monkeypatch):
    real = experiment.replay_decisions

    def broken(rows, threshold=0.5):
        return real(rows, threshold) + [(0, None, None)]
    monkeypatch.setattr(experiment, "replay_decisions", broken)
    result, report = run.run("train", 0, 0.2, False, sizes=pl.TINY)
    assert not result["correct"]
    assert result["failed"] == 2 * pl.TINY.pair_seeds  # none and lstm runs
    assert all("replay" in f for f in report["failures"])


def test_checkpoint_round_trip_change_counts_as_failed(monkeypatch):
    real = checkpoint.load_checkpoint

    def perturbed(path):
        model, stats = real(path)
        model.dense.b_out[0] += 1e-9
        return model, stats
    monkeypatch.setattr(checkpoint, "load_checkpoint", perturbed)
    result, _ = run.run("closed_loop", 0, 0.2, False, sizes=pl.TINY)
    assert result["failed"] == pl.TINY.rounds
    assert not result["correct"]


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spans_self_time_and_disabled_recorder():
    spans = Spans()
    with spans.span("outer"):
        with spans.span("inner"):
            pass
    assert spans.names == ["outer", "inner"] and spans.parents == [-1, 0]
    outer, inner = spans.durations("outer")[0], spans.durations("inner")[0]
    assert spans.self_times("outer") == [pytest.approx(outer - inner)]
    assert spans.durations("inner", parent="outer") == [inner]
    off = Spans(enabled=False)
    with off.span("x"):
        pass
    assert off.names == [] and off.median("x") == 0.0


def test_patches_restore_module_and_instance_attributes():
    stats = telemetry.NormalizationStats(np.zeros(2), np.ones(2))
    original = simulator.run
    with Patches() as patches:
        patches.set(simulator, "run", None)
        patches.wrap(stats, "transform", lambda fn: (lambda v: fn(v) + 1))
        assert simulator.run is None
        assert stats.transform(np.zeros(2)).tolist() == [1.0, 1.0]
    assert simulator.run is original
    assert "transform" not in vars(stats)


def test_median_total_takes_each_items_median():
    assert pl.median_total([[3.0, 1.0], [2.0, 5.0], [9.0, 4.0]]) == 7.0
