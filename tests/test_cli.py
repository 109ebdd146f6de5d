"""Command-line interface: composition, determinism, exit codes."""

import json

import pytest

from congestionlab.checkpoint import save_checkpoint
from congestionlab.cli import load_config, main, ConfigError
from congestionlab.nn import ModelConfig, init_parameters
from congestionlab.telemetry import (FEATURE_COUNT, WINDOW, CongestionLevel,
                                     NormalizationStats, TelemetryRecord,
                                     write_csv)

FAST_SIM = ["--set", "sim.duration_s=40", "--set",
            "sim.telemetry_interval_s=1.0"]
FAST_TRAIN = ["--set", "training.max_epochs=2", "--set",
              "model.hidden_units=8"]

# each of these once gave a raw traceback, ran to exit 0 on a nonsense value,
# or was dropped without a word
BAD_OVERRIDES = [
    "sim.device_count=2.5", "sim.propagation_ms=-5",
    "model.hidden_units=2.5", "training.batch_size=2.5",
    "sim.buffer_packets=2.5", "sim.load_multiplier=-1",
    "sim.shaping_fraction=-1", "sim.priority_fraction=3",
    "sim.duration_s=true", "sim.telemetry_interval_s=Infinity",
    "master_seed=true", "training.learning_rate=NaN",
    # the interval count overflows a float
    "sim.telemetry_interval_s=5e-324", "sim.duration_s=1" + "0" * 400,
    # finite, but past the interval, device or expected-arrival limit
    "sim.telemetry_interval_s=9.313225746154785e-10",  # 2**-30
    "sim.device_count=1000000000", "sim.link_capacity_bps=1e300",
    # derived by the commands, so not settings
    "sim.scenario=low", "sim.seed=5", "training.seed=3", "model.features=3",
    "model.classes=4",
    # the score weights and decimals are constants
    "policy.score_weights=[0,0.5,1]", "policy.score_decimals=2",
    # the model's window is telemetry.WINDOW: a checkpoint trained at 10 once
    # ran at window 3, scoring from the third record
    "window=3",
    # the edges of an open or positive range
    "policy.threshold=0", "policy.threshold=1", "training.max_epochs=0",
    # neither is a setting: the split is always a seeded shuffle, and the
    # clipping bound (always on) is the constant TrainingConfig.clip_norm
    "chronological_split=false", "training.clip_norm=5",
]


class TestConfig:
    def test_defaults(self):
        config = load_config(None, [])
        assert config.master_seed == 42
        assert config.runs_per_scenario == 1

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"master_seed": 7,
                                    "sim": {"duration_s": 60.0}}))
        config = load_config(str(path), [])
        assert config.master_seed == 7
        assert config.sim.duration_s == 60.0

    def test_set_overrides_nest(self):
        config = load_config(None, ["sim.duration_s=60", "master_seed=9"])
        assert config.sim.duration_s == 60
        assert config.master_seed == 9

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json", [])

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["no-equals-sign"])


class TestGenData:
    def test_default_shape(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(out)]) == 0
        files = sorted(p.name for p in out.glob("telemetry_*.csv"))
        assert files == ["telemetry_high_0.csv", "telemetry_low_0.csv",
                         "telemetry_medium_0.csv"]
        # 300 s at 10 s intervals -> 30 records per file
        for p in out.glob("telemetry_*.csv"):
            assert len(p.read_text().splitlines()) == 31

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["gen-data", "--out-dir", str(out)] + FAST_SIM) == 0
        for p in sorted(out_a.glob("*.csv")):
            assert p.read_bytes() == (out_b / p.name).read_bytes()

    def test_indivisible_interval_is_config_error(self, tmp_path):
        code = main(["gen-data", "--out-dir", str(tmp_path / "x"),
                     "--set", "sim.duration_s=25", "--set",
                     "sim.telemetry_interval_s=10"])
        assert code == 1


def write_report(path, predictor, loss_rate, mean_delay_ms=20.0):
    summary = dict(loss_rate=loss_rate, mean_delay_ms=mean_delay_ms,
                   median_interval_delay_ms=18.0, p95_interval_delay_ms=40.0,
                   mean_throughput_kbps=80.0, total_injected=1000,
                   total_dropped=int(1000 * loss_rate), actions_taken={})
    path.write_text(json.dumps({"scenario": "high", "predictor": predictor,
                                "seed": 7, "config_digest": "0" * 16,
                                "summary": summary}))
    return str(path)


class TestCompare:
    def test_paired_deltas_csv(self, tmp_path, capsys):
        base = write_report(tmp_path / "a.json", "none", 0.25)
        other = write_report(tmp_path / "b.json", "lstm", 0.125,
                             mean_delay_ms=15.5)
        assert main(["compare", base, other]) == 0
        assert capsys.readouterr().out == (
            "scenario,seed,baseline,other,loss_delta,delay_delta_ms,"
            "throughput_delta_kbps\n"
            "high,7,none,lstm,-0.125000,-4.500000,0.000000\n")

    def test_non_json_report_is_error(self, tmp_path, capsys):
        base = write_report(tmp_path / "a.json", "none", 0.25)
        bad = tmp_path / "b.json"
        bad.write_text("not json")
        assert main(["compare", base, str(bad)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "b.json" in out.err

    # compared with itself, each of these once printed a row (nan, true
    # read as 1.0, seed 1.0 pairing with seed 1, a non-str name) and exited 0
    @pytest.mark.parametrize("key, value", [
        ("loss_rate", float("nan")), ("mean_delay_ms", True), ("seed", 7.0),
        ("scenario", 1), ("predictor", None), ("config_digest", 0)])
    def test_bad_report_value_is_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "a.json"
        write_report(path, "none", 0.25)
        report = json.loads(path.read_text())
        (report if key in report else report["summary"])[key] = value
        path.write_text(json.dumps(report))
        assert main(["compare", str(path), str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "a.json" in out.err

    def test_empty_report_is_error(self, tmp_path, capsys):
        base = write_report(tmp_path / "a.json", "none", 0.25)
        empty = tmp_path / "b.json"
        empty.write_text("{}")
        assert main(["compare", base, str(empty)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "b.json" in out.err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train once; shared by the composition tests."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--out-dir", str(data)] + FAST_SIM) == 0
    assert main(["train", "--data", str(data), "--out-dir", str(run)]
                + FAST_SIM + FAST_TRAIN) == 0
    return root


class TestTrainEvaluate:
    def test_train_writes_artifacts(self, pipeline):
        run = pipeline / "run"
        assert (run / "checkpoint.txt").exists()
        report = (run / "training_report.txt").read_text()
        assert report.startswith("epoch,train_loss,val_loss,val_accuracy")
        assert "stopping_epoch" in report

    def test_evaluate_runs_on_checkpoint(self, pipeline, capsys):
        code = main(["evaluate", "--checkpoint",
                     str(pipeline / "run" / "checkpoint.txt"),
                     "--data", str(pipeline / "data")])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_missing_checkpoint_is_error(self, tmp_path):
        code = main(["evaluate", "--checkpoint",
                     str(tmp_path / "none.txt"), "--data", str(tmp_path)])
        assert code == 1

    def test_missing_data_is_error(self, tmp_path):
        out = tmp_path / "out"
        code = main(["train", "--data", str(tmp_path / "nonexistent"),
                     "--out-dir", str(out)])
        assert code == 1
        assert not out.exists()

    @staticmethod
    def write_series(path, lengths):
        path.mkdir()
        for k, n in enumerate(lengths):
            write_csv(path / f"telemetry_high_{k}.csv", [
                TelemetryRecord(float(t + 1), 80.0, 20.0, 0.1, 0.5, 20,
                                CongestionLevel(t % 3)) for t in range(n)])

    def test_evaluate_without_a_full_window_is_error(self, tmp_path, capsys):
        checkpoint = tmp_path / "checkpoint.txt"
        save_checkpoint(checkpoint, init_parameters(
            ModelConfig(hidden_units=2, num_layers=1), seed=0),
            NormalizationStats([0.0] * FEATURE_COUNT, [1.0] * FEATURE_COUNT))
        self.write_series(tmp_path / "data", [WINDOW, 1, WINDOW - 3])
        code = main(["evaluate", "--checkpoint", str(checkpoint),
                     "--data", str(tmp_path / "data")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no usable windows" in captured.err

    def test_train_on_fewer_than_10_windows_is_error(self, tmp_path, capsys):
        # 4 + 5 windows, one short of a split
        self.write_series(tmp_path / "data", [WINDOW + 4, WINDOW, WINDOW + 5])
        out = tmp_path / "out"
        code = main(["train", "--data", str(tmp_path / "data"),
                     "--out-dir", str(out)] + FAST_TRAIN)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 10 samples" in captured.err
        assert not out.exists()


class TestRunExperimentCompareReplay:
    def run_predictor(self, pipeline, predictor, extra=()):
        out = pipeline / f"exp_{predictor}"
        argv = ["run-experiment", "--predictor", predictor,
                "--scenario", "high", "--out-dir", str(out),
                "--set", "sim.duration_s=120"]
        if predictor == "lstm":
            argv += ["--checkpoint",
                     str(pipeline / "run" / "checkpoint.txt")]
        argv += list(extra)
        assert main(argv) == 0
        return out / f"high_{predictor}"

    def test_null_predictor_only_none_actions(self, pipeline):
        run_dir = self.run_predictor(pipeline, "none")
        lines = (run_dir / "decisions.csv").read_text().splitlines()[1:]
        assert lines
        assert all(line.split(",")[3] == "none" for line in lines)

    def test_config_json_holds_the_scenario_value(self, pipeline):
        run_dir = self.run_predictor(pipeline, "none")
        config = json.loads((run_dir / "config.json").read_text())
        assert config["scenario"] == "high"

    def test_lstm_requires_checkpoint(self, tmp_path):
        code = main(["run-experiment", "--predictor", "lstm",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 1

    def test_outputs_and_pairing(self, pipeline, capsys):
        none_dir = self.run_predictor(pipeline, "none")
        fls_dir = self.run_predictor(pipeline, "fls")
        for d in (none_dir, fls_dir):
            for name in ("config.json", "telemetry.csv", "decisions.csv",
                         "report.txt", "intervals.csv", "report.json"):
                assert (d / name).exists()
        none_report = json.loads((none_dir / "report.json").read_text())
        fls_report = json.loads((fls_dir / "report.json").read_text())
        # same scenario seed across predictors: paired by construction
        assert none_report["seed"] == fls_report["seed"]
        capsys.readouterr()
        code = main(["compare", str(none_dir / "report.json"),
                     str(fls_dir / "report.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("scenario,seed,")
        assert "none,fls" in out

    def test_compare_rejects_unpaired(self, pipeline, tmp_path):
        none_dir = self.run_predictor(pipeline, "none")
        report = json.loads((none_dir / "report.json").read_text())
        report["seed"] = report["seed"] + 1
        other = tmp_path / "other.json"
        other.write_text(json.dumps(report))
        code = main(["compare", str(none_dir / "report.json"), str(other)])
        assert code == 1

    def test_compare_rejects_differing_config(self, tmp_path, capsys):
        # same scenario and seed, but a smaller buffer: different traffic
        reports = []
        for name, extra in (("a", []),
                            ("b", ["--set", "sim.buffer_packets=10"])):
            assert main(["run-experiment", "--predictor", "fls", "--scenario",
                         "high", "--out-dir", str(tmp_path / name)]
                        + FAST_SIM + extra) == 0
            reports.append(str(tmp_path / name / "high_fls" / "report.json"))
        capsys.readouterr()
        assert main(["compare"] + reports) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "config digest mismatch" in out.err

    def test_int_and_float_values_share_a_digest(self, tmp_path, capsys):
        reports = []
        for name, duration in (("int", "40"), ("float", "40.0")):
            assert main(["run-experiment", "--predictor", "none",
                         "--scenario", "high", "--out-dir",
                         str(tmp_path / name), "--set",
                         f"sim.duration_s={duration}", "--set",
                         "sim.telemetry_interval_s=1"]) == 0
            reports.append(tmp_path / name / "high_none" / "report.json")
        digests = [json.loads(r.read_text())["config_digest"] for r in reports]
        assert digests[0] == digests[1]
        assert main(["compare"] + [str(r) for r in reports]) == 0

    def test_replay_consistent_log(self, pipeline, capsys):
        fls_dir = self.run_predictor(pipeline, "fls")
        code = main(["replay", str(fls_dir / "decisions.csv")])
        assert code == 0
        assert "all consistent" in capsys.readouterr().out

    def test_logged_threshold_is_the_one_decided_by(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["run-experiment", "--predictor", "fls", "--scenario",
                     "high", "--out-dir", str(out), *FAST_SIM,
                     "--set", "policy.threshold=0.7"]) == 0
        log = out / "high_fls" / "decisions.csv"
        rows = [line.split(",") for line in log.read_text().splitlines()[1:]]
        assert rows and all(row[2] == "0.700000" for row in rows)
        # scores in [0.5, 0.7) would act under the default threshold, so
        # replay at 0.7 tells the two thresholds apart
        assert any(row[1] and 0.5 <= float(row[1]) < 0.7 for row in rows)
        assert main(["replay", str(log)]) == 0
        assert "all consistent" in capsys.readouterr().out

    def test_replay_mismatch_exits_2(self, pipeline, tmp_path):
        log = tmp_path / "decisions.csv"
        log.write_text(
            "time_s,score,threshold,action,throughput_kbps,predictor\n"
            "10.0,0.900000,0.500000,none,50.0,lstm\n")
        assert main(["replay", str(log)]) == 2

    @pytest.mark.parametrize("predictor, row, action", [
        ("none", 5, "traffic_shaping"),  # no row of a none run is scored
        ("fls", 0, "qos_adjustment"),    # the first row is a warm-up row
    ], ids=["none", "fls-warm-up"])
    def test_replay_checks_unscored_rows(self, tmp_path, capsys, predictor,
                                         row, action):
        out = tmp_path / "exp"
        assert main(["run-experiment", "--predictor", predictor,
                     "--scenario", "high", "--out-dir", str(out),
                     *FAST_SIM]) == 0
        log = out / f"high_{predictor}" / "decisions.csv"
        capsys.readouterr()
        assert main(["replay", str(log)]) == 0
        # 40 s at 1 s intervals: the summary counts all 40 rows, scored or not
        assert capsys.readouterr().out == \
            "40 decisions replayed, all consistent\n"
        lines = log.read_text().splitlines()
        fields = lines[row + 1].split(",")
        assert fields[1] == ""  # unscored
        fields[3] = action
        lines[row + 1] = ",".join(fields)
        log.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(log)]) == 2
        err = capsys.readouterr().err
        assert f"row {row}: recorded {action}, recomputed none" in err
        assert "1/40 decisions inconsistent" in err

    @pytest.mark.parametrize("source", ["set", "config"])
    def test_window_is_not_a_setting(self, pipeline, tmp_path, capsys, source):
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"window": 10}))
        argv = ["run-experiment", "--predictor", "lstm", "--scenario", "high",
                "--checkpoint", str(pipeline / "run" / "checkpoint.txt"),
                "--out-dir", str(out)]
        argv += {"set": ["--set", "window=3"],
                 "config": ["--config", str(config)]}[source]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'window'" in captured.err
        assert not out.exists()

    def test_replay_header_only_is_error(self, tmp_path, capsys):
        # every run logs one row per interval: no rows means a cut file
        log = tmp_path / "decisions.csv"
        log.write_text("time_s,score,threshold,action,throughput_kbps,"
                       "predictor\n")
        assert main(["replay", str(log)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "no decisions" in out.err

    def test_replay_missing_columns_is_error(self, tmp_path):
        log = tmp_path / "decisions.csv"
        log.write_text("a,b\n1,2\n")
        assert main(["replay", str(log)]) == 1


class TestFailClosedInputs:
    @pytest.mark.parametrize("row", [
        "10.0,0.900000,0.500000,bogus,50.0,lstm",   # unknown action
        "10.0,abc,0.500000,none,50.0,lstm",         # non-numeric score
        "10.0,0.900000,xyz,none,50.0,lstm",         # non-numeric threshold
        "10.0,0.900000,0.500000",                    # row cut before action
    ])
    def test_replay_bad_row_is_error(self, tmp_path, capsys, row):
        log = tmp_path / "decisions.csv"
        log.write_text("time_s,score,threshold,action,throughput_kbps,"
                       "predictor\n" + row + "\n")
        assert main(["replay", str(log)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "row 0" in out.err

    @pytest.mark.parametrize("row", [
        "20.000000,,0.500000,none,50.000000,fls,x",
        "20.000000,,0.500000,none,50.000000",
        "abc,,0.500000,none,50.000000,fls",
        "nan,,0.500000,none,50.000000,fls",
        "inf,,0.500000,none,50.000000,fls",
        "10.000000,,0.500000,none,50.000000,fls",
        "5.000000,,0.500000,none,50.000000,fls",
        "20.000000,,0.500000,none,abc,fls",
        "20.000000,,0.500000,none,nan,fls",
        "20.000000,,0.500000,none,inf,fls",
        "20.000000,,0.500000,none,-1.000000,fls",
        "20.000000,,0.500000,none,50.000000,bogus",
        "20.000000,,0.500000,none,50.000000,lstm",
    ], ids=["extra-field", "missing-field", "time-not-a-number", "time-nan",
            "time-inf", "time-repeated", "time-decreasing",
            "throughput-not-a-number", "throughput-nan", "throughput-inf",
            "throughput-negative", "predictor-unknown", "predictor-changes"])
    def test_replay_malformed_row_is_error(self, tmp_path, capsys, row):
        # every decision is consistent (unscored rows record none); only the
        # format of row 1 is broken
        log = tmp_path / "decisions.csv"
        header = "time_s,score,threshold,action,throughput_kbps,predictor\n"
        first = "10.000000,,0.500000,none,50.000000,fls\n"
        last = "30.000000,,0.500000,none,50.000000,fls\n"
        log.write_text(header + first
                       + "20.000000,,0.500000,none,50.000000,fls\n" + last)
        assert main(["replay", str(log)]) == 0
        capsys.readouterr()
        log.write_text(header + first + row + "\n" + last)
        assert main(["replay", str(log)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "row 1: " in out.err

    @pytest.mark.parametrize("header, row", [
        ("time_s,score,threshold,action,throughput_kbps,predictor,extra",
         "10.0,0.600000,0.500000,traffic_shaping,50.0,lstm,x"),
        ("score,time_s,threshold,action,throughput_kbps,predictor",
         "0.600000,10.0,0.500000,traffic_shaping,50.0,lstm"),
    ], ids=["extra-column", "reordered-columns"])
    def test_replay_header_must_be_exact(self, tmp_path, capsys, header, row):
        # the row is consistent: only the header is wrong
        log = tmp_path / "decisions.csv"
        log.write_text(header + "\n" + row + "\n")
        assert main(["replay", str(log)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "unexpected header" in out.err

    def test_replay_threshold_must_match_row_0(self, tmp_path, capsys):
        # consistent under row 0's threshold 0.5, but row 1 claims 0.9, at
        # which decide() gives none
        log = tmp_path / "decisions.csv"
        log.write_text("time_s,score,threshold,action,throughput_kbps,"
                       "predictor\n"
                       "10.0,0.600000,0.500000,traffic_shaping,50.0,lstm\n"
                       "20.0,0.600000,0.900000,traffic_shaping,50.0,lstm\n")
        assert main(["replay", str(log)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "row 1: threshold '0.900000'" in out.err

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "{bad}", "--out-dir", "{tmp}"],
        ["evaluate", "--checkpoint", "{bad}", "--data", "{bad}"],
        ["replay", "{bad}"],
        ["gen-data", "--config", "{bad}", "--out-dir", "{tmp}"],
    ], ids=["telemetry", "checkpoint", "replay", "config"])
    def test_undecodable_file_is_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe\x00junk\n")
        argv = [a.format(bad=bad, tmp=tmp_path / "out") for a in argv]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "bad.bin" in out.err

    # each of these once raised a raw IsADirectoryError or FileExistsError
    @pytest.mark.parametrize("argv", [
        ["replay", "{dir}"],
        ["compare", "{dir}", "{dir}"],
        ["evaluate", "--checkpoint", "{dir}", "--data", "{dir}"],
        ["gen-data", "--config", "{dir}", "--out-dir", "{dir}/out"],
        ["gen-data", "--out-dir", "{file}"],
    ], ids=["replay", "compare", "evaluate", "gen-data-config",
            "gen-data-out-dir"])
    def test_unreadable_path_is_error(self, tmp_path, capsys, argv):
        file = tmp_path / "file.txt"
        file.write_text("x\n")
        argv = [a.format(dir=tmp_path, file=file) for a in argv]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")
        assert "Traceback" not in out.err

    # argparse's own exit 2 once made these read as a replay mismatch;
    # evaluate reads everything from the checkpoint, so it has no config
    @pytest.mark.parametrize("argv", [
        ["bogus"],
        ["evaluate", "--checkpoint", "{tmp}/checkpoint.txt"],
        ["evaluate", "--checkpoint", "{tmp}/checkpoint.txt", "--data", "{tmp}",
         "--set", "x=1"],
        ["evaluate", "--checkpoint", "{tmp}/checkpoint.txt", "--data", "{tmp}",
         "--config", "{tmp}/config.json"],
    ], ids=["unknown-command", "missing-data", "evaluate-set",
            "evaluate-config"])
    def test_usage_error_exits_1(self, tmp_path, capsys, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: congestionlab" in captured.err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: congestionlab" in capsys.readouterr().out

    def test_config_top_level_must_be_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(str(path), [])
        assert main(["gen-data", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("loaded, overrides", [
        ({"sim": 5}, []),
        ({"window": 10}, []),  # an unknown key: the window is not a setting
        ({"trainig": {"max_epochs": 1}}, []),
        ({}, ["trainig.max_epochs=1"]),
        ({}, ["runs_per_scenario=-1"]),
        ({"runs_per_scenario": 0}, []),
        ({"runs_per_scenario": True}, []),
    ] + [({}, [override]) for override in BAD_OVERRIDES])
    def test_config_wrong_shape_rejected(self, tmp_path, loaded, overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(loaded))
        with pytest.raises(ConfigError):
            load_config(str(path), overrides)

    @pytest.mark.parametrize("command, override", [
        pytest.param("gen-data", override, id=override[:40])
        for override in BAD_OVERRIDES] + [
        # train refuses too, before it reads --data or makes --out-dir
        pytest.param("train", "chronological_split=false",
                     id="train-chronological_split=false")])
    def test_bad_override_exits_1_before_output(self, tmp_path, capsys,
                                                command, override):
        out = tmp_path / "out"
        data = {"gen-data": [], "train": ["--data", str(tmp_path)]}[command]
        assert main([command, *data, "--out-dir", str(out),
                     "--set", override]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        key = override.partition("=")[0].rpartition(".")[2]
        assert key in captured.err
        assert not out.exists()

    def test_bad_config_value_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-data", "--out-dir", str(out),
                     "--set", "runs_per_scenario=-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "runs_per_scenario" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("features, classes, command", [
        (3, 3, "evaluate"), (5, 4, "evaluate"), (5, 4, "run-experiment")])
    def test_checkpoint_off_telemetry_schema_is_error(
            self, tmp_path, capsys, features, classes, command):
        checkpoint = tmp_path / "checkpoint.txt"
        model = init_parameters(ModelConfig(
            hidden_units=2, num_layers=1, features=features, classes=classes),
            seed=0)
        save_checkpoint(checkpoint, model, NormalizationStats(
            [0.0] * features, [1.0] * features))
        data = tmp_path / "telemetry_high_0.csv"
        write_csv(data, [TelemetryRecord(float(k + 1), 80.0, 20.0, 0.1, 0.5,
                                         20, CongestionLevel(k % 3))
                         for k in range(15)])
        out = tmp_path / "out"
        argv = {"evaluate": ["evaluate", "--data", str(data)],
                "run-experiment": ["run-experiment", "--predictor", "lstm",
                                   "--scenario", "high", "--out-dir", str(out),
                                   "--set", "sim.duration_s=20"]}[command]
        assert main(argv + ["--checkpoint", str(checkpoint)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"({features}, {classes})" in captured.err
        assert not out.exists()
