"""Command-line interface: composition, determinism, exit codes."""

import json

import pytest

from congestionlab.cli import load_config, main, ConfigError

FAST_SIM = ["--set", "sim.duration_s=40", "--set",
            "sim.telemetry_interval_s=1.0"]
FAST_TRAIN = ["--set", "training.max_epochs=2", "--set",
              "model.hidden_units=8"]


class TestConfig:
    def test_defaults(self):
        config = load_config(None, [])
        assert config["master_seed"] == 42
        assert config["window"] == 10

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"master_seed": 7,
                                    "sim": {"duration_s": 60.0}}))
        config = load_config(str(path), [])
        assert config["master_seed"] == 7
        assert config["sim"]["duration_s"] == 60.0

    def test_set_overrides_nest(self):
        config = load_config(None, ["sim.duration_s=60", "master_seed=9"])
        assert config["sim"]["duration_s"] == 60
        assert config["master_seed"] == 9

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

    def test_missing_data_is_error(self, pipeline):
        code = main(["train", "--data", "/nonexistent/dir",
                     "--out-dir", "/tmp/unused"])
        assert code == 1


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

    def test_replay_consistent_log(self, pipeline, capsys):
        fls_dir = self.run_predictor(pipeline, "fls")
        code = main(["replay", str(fls_dir / "decisions.csv")])
        assert code == 0
        assert "all consistent" in capsys.readouterr().out

    def test_replay_mismatch_exits_2(self, pipeline, tmp_path):
        log = tmp_path / "decisions.csv"
        log.write_text(
            "time_s,score,threshold,action,throughput_kbps,predictor\n"
            "10.0,0.900000,0.500000,none,50.0,lstm\n")
        assert main(["replay", str(log)]) == 2

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
        ({"window": "ten"}, []),
        ({}, ["window.size=3"]),
    ])
    def test_config_wrong_shape_rejected(self, tmp_path, loaded, overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(loaded))
        with pytest.raises(ConfigError):
            load_config(str(path), overrides)
