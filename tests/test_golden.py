"""Pinned SHA-256 digests of seeded outputs.

Each digest covers bytes the lab writes or trains on for a fixed seed: the
`telemetry.csv` and `decisions.csv` of short closed-loop runs for every
predictor, and the split samples and normalization stats that
`experiment.train_pipeline` builds from a small corpus.  A refactor must
leave every digest as it is; a change that means to alter these bytes
updates the digest and says why.

Trained parameters are deliberately not hashed: their last bits depend on the
BLAS build and the CPU.  The lstm runs use a seeded `init_parameters` model
with fixed stats, so their decisions do not depend on training.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from congestionlab import experiment, nn, telemetry, training
from congestionlab.controller import write_decision_log
from congestionlab.simulator import LoadScenario, SimConfig

LOOP_RUNS = {
    ("low", "none", 1): (
        "e21388901d53b3683373e91549697f9d2dbe31dcddb46a8a20afd88de170ff13",
        "a019ea4ff7e95f100e44e9b80ed5c9d4480f23b047c330e7828ef93c9f89530f"),
    ("high", "fls", 2): (
        "754eeedb7da5376dffef73ade30b0ec5dea64d2a9de97094a49df7c2a943fed8",
        "67a99a39ce4fe34b5c848f92739927c5eb2461a0e7d86963e9bd96ab6b0e4cc9"),
    ("high", "lstm", 3): (
        "dba92694480996e7c9a5e95a356dff352dffe7f2030339979455b6adfa592999",
        "4f7fce65f9b2e8981d1ab50affbe3cfe3c695557d9e27ab483e67252b4365aaf"),
    ("medium", "lstm", 4): (
        "d49a3e3d686e9625e023737185f97485951f64e22276d14172185d517551f2ba",
        "e987c68b00206db0e4a891f7f5ae2473af1ab41b23465906ecac5bc7b75de9c7"),
}

# keyed by chronological_split
SPLIT_DIGESTS = {
    False: "581d0e8dc8a81f38b3d89318c32b22cb6c2b280d96d26c92591cc4ad0b7e546d",
    True: "153650048107a81f8d4941a2d8cd390a34f41167769d5ab6cb5212602be47df1",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_controller(predictor):
    model = nn.init_parameters(nn.ModelConfig(hidden_units=8), seed=5)
    stats = telemetry.NormalizationStats([0.0, 0.0, 0.0, 0.0, 0.0],
                                         [120.0, 400.0, 0.5, 1.0, 20.0])
    return experiment.make_controller(predictor, model=model, stats=stats)


def loop_digests(scenario, predictor, seed, tmp_path):
    config = SimConfig(scenario=LoadScenario(scenario), duration_s=60.0,
                       telemetry_interval_s=1.0, seed=seed)
    run = experiment.run_experiment(config, golden_controller(predictor))
    telemetry.write_csv(tmp_path / "telemetry.csv", run.sim_result.telemetry)
    write_decision_log(tmp_path / "decisions.csv", run.decisions)
    return (sha256((tmp_path / "telemetry.csv").read_bytes()),
            sha256((tmp_path / "decisions.csv").read_bytes()))


def split_digest(trained):
    digest = hashlib.sha256()
    for part in (trained.split.train, trained.split.validation,
                 trained.split.test):
        digest.update(len(part).to_bytes(4, "big"))
        for sample in part:
            digest.update(np.ascontiguousarray(sample.inputs).tobytes())
            digest.update(sample.target.tobytes())
    digest.update(trained.stats.minimum.tobytes())
    digest.update(trained.stats.maximum.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def corpus():
    base = SimConfig(duration_s=40.0, telemetry_interval_s=1.0)
    return [experiment.generate_telemetry(dataclasses.replace(
                base, scenario=scenario,
                seed=experiment.derive_seed(8, f"gen/{scenario.value}/{k}")))
            for scenario in LoadScenario for k in range(2)]


@pytest.mark.parametrize("key", sorted(LOOP_RUNS))
def test_closed_loop_outputs_match_golden(key, tmp_path):
    assert loop_digests(*key, tmp_path) == LOOP_RUNS[key]


@pytest.mark.parametrize("chronological", [False, True])
def test_train_pipeline_split_matches_golden(corpus, chronological):
    trained = experiment.train_pipeline(
        corpus, nn.ModelConfig(hidden_units=4),
        training.TrainingConfig(max_epochs=1, seed=3), window=8,
        chronological_split=chronological)
    assert split_digest(trained) == SPLIT_DIGESTS[chronological]
