"""Fuzzed input boundaries: every reader loads its input or raises its
typed error (telemetry CSV, checkpoint, JSON config, decision log)."""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from congestionlab.checkpoint import (CheckpointError, load_checkpoint,
                                      save_checkpoint)
from congestionlab.cli import (SECTIONS, ConfigError, RunConfig, load_config,
                               main)
from congestionlab.controller import (ControlAction, DecisionEntry,
                                      write_decision_log)
from congestionlab.nn import ModelConfig, init_parameters
from congestionlab.telemetry import (CongestionLevel, NormalizationStats,
                                     TelemetryError, TelemetryRecord,
                                     ingest_csv, write_csv)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def inputs(valid: bytes, *shaped):
    """Arbitrary bytes, a valid file with one span swapped for arbitrary
    bytes (reaches the checks behind the header), or a reader-specific
    strategy of well-formed but wrong-valued inputs."""
    spliced = st.tuples(st.integers(0, len(valid)), st.integers(0, 32),
                        st.binary(max_size=12)).map(
        lambda t: valid[:t[0]] + t[2] + valid[t[0] + t[1]:])
    return st.one_of(st.binary(max_size=200), spliced, *shaped)


def csv_rows(valid: bytes):
    """The valid header over rows whose fields each take a value seen in
    that column of the valid file or a bad value; half the rows are cut
    short."""
    header, *lines = valid.decode().splitlines()
    columns = list(zip(*(line.split(",") for line in lines)))
    bad = ["", "nan", "inf", "-1", "2", "abc", '"']
    row = st.tuples(*(st.sampled_from(sorted(set(col)) + bad)
                      for col in columns)).map(list)
    cut = st.tuples(row, st.integers(0, len(columns) - 1)).map(
        lambda t: t[0][:t[1]])
    return st.lists(st.one_of(row, cut).map(",".join), max_size=4).map(
        lambda rows: "\n".join([header] + rows).encode() + b"\n")


def field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


json_leaves = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=6))
json_docs = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(field_names(RunConfig)) | st.text(max_size=6),
        inner, max_size=3),
    max_leaves=8).map(lambda doc: json.dumps(doc).encode())


# values at the edges of the field checks, which arbitrary leaves rarely hit
edge_leaves = st.sampled_from([float("nan"), float("inf"), 1e308, 5e-324,
                               10 ** 400, -1, 0, 1, 2.5, True])


def section(cls):
    """Some of `cls`'s real field names, each with an arbitrary JSON leaf, an
    edge value or a short list of them."""
    leaves = json_leaves | edge_leaves
    return st.dictionaries(st.sampled_from(field_names(cls)),
                           leaves | st.lists(leaves, max_size=4), max_size=4)


# well-formed documents that reach every section's own field checks
run_configs = st.fixed_dictionaries({}, optional={
    name: section(SECTIONS[name][0]) if name in SECTIONS else json_leaves
    for name in field_names(RunConfig)}).map(
        lambda doc: json.dumps(doc).encode())


def valid_file(tmp_path_factory, name, write) -> bytes:
    path = tmp_path_factory.mktemp("valid") / name
    write(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def telemetry_csv(tmp_path_factory):
    records = [TelemetryRecord(10.0 * (k + 1), 80.0 + k, 20.0, 0.1 * k,
                               0.3 * k, 20, CongestionLevel(k))
               for k in range(3)]
    return valid_file(tmp_path_factory, "telemetry.csv",
                      lambda p: write_csv(p, records))


@pytest.fixture(scope="module")
def checkpoint_txt(tmp_path_factory):
    model = init_parameters(ModelConfig(hidden_units=2, num_layers=1), seed=3)
    stats = NormalizationStats([0.0] * 5, [1.0] * 5)
    return valid_file(tmp_path_factory, "checkpoint.txt",
                      lambda p: save_checkpoint(p, model, stats))


@pytest.fixture(scope="module")
def decision_log(tmp_path_factory):
    entries = [DecisionEntry(10.0, None, 0.5, ControlAction.NONE, 80.0, "fls"),
               DecisionEntry(20.0, 0.7, 0.5, ControlAction.TRAFFIC_SHAPING,
                             80.0, "fls"),
               DecisionEntry(30.0, 0.6, 0.5, ControlAction.QOS_ADJUSTMENT,
                             80.0, "fls")]
    return valid_file(tmp_path_factory, "decisions.csv",
                      lambda p: write_decision_log(p, entries))


CONFIG_JSON = json.dumps({"master_seed": 7, "runs_per_scenario": 2,
                          "sim": {"duration_s": 60.0}}).encode()


def test_ingest_csv(tmp_path, telemetry_csv):
    path = tmp_path / "telemetry.csv"

    @FUZZ
    @given(inputs(telemetry_csv, csv_rows(telemetry_csv)))
    def check(data):
        path.write_bytes(data)
        try:
            ingest_csv(path)
        except TelemetryError:
            pass
    check()


def test_load_checkpoint(tmp_path, checkpoint_txt):
    path = tmp_path / "checkpoint.txt"

    @FUZZ
    @given(inputs(checkpoint_txt))
    def check(data):
        path.write_bytes(data)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass
    check()


def test_load_config(tmp_path):
    path = tmp_path / "config.json"

    @FUZZ
    @given(inputs(CONFIG_JSON, json_docs, run_configs))
    def check(data):
        path.write_bytes(data)
        try:
            load_config(str(path), [])
        except ConfigError:
            pass
    check()


def test_replay_reader(tmp_path, decision_log):
    path = tmp_path / "decisions.csv"

    @FUZZ
    @given(inputs(decision_log, csv_rows(decision_log)))
    def check(data):
        path.write_bytes(data)
        # 0 consistent, 1 typed input error, 2 replay mismatch
        assert main(["replay", str(path)]) in (0, 1, 2)
    check()
