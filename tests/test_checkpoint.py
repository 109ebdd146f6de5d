"""Checkpoint format: exact round-trip, validation, atomic writes."""

import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest

from congestionlab.checkpoint import (MAGIC, CheckpointError, load_checkpoint,
                                      save_checkpoint)
from congestionlab.cli import main
from congestionlab.nn import (ModelConfig, flatten_parameters,
                              init_parameters)
from congestionlab.telemetry import NormalizationStats

V1_FIXTURE = Path(__file__).parent / "data" / "checkpoint_v1.txt"


def small_model():
    cfg = ModelConfig(hidden_units=3, num_layers=2, features=5,
                      dropout_rate=0.2)
    return init_parameters(cfg, seed=17)


def stats5():
    return NormalizationStats([0.0, 1.0, 2.0, 3.0, 4.0],
                              [10.0, 11.0, 12.0, 13.0, 14.0])


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        model = small_model()
        path = tmp_path / "ck.txt"
        save_checkpoint(path, model, stats5())
        loaded, loaded_stats = load_checkpoint(path)
        np.testing.assert_array_equal(flatten_parameters(loaded),
                                      flatten_parameters(model))
        np.testing.assert_array_equal(loaded_stats.minimum, stats5().minimum)
        np.testing.assert_array_equal(loaded_stats.maximum, stats5().maximum)
        assert loaded.config == model.config

    def test_awkward_floats_survive(self, tmp_path):
        model = small_model()
        model.dense.b_out = np.array([1e-300, np.pi, -1.0 / 3.0])
        path = tmp_path / "ck.txt"
        save_checkpoint(path, model, stats5())
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.dense.b_out, model.dense.b_out)

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        other = init_parameters(ModelConfig(hidden_units=3, num_layers=2,
                                            features=5, dropout_rate=0.2),
                                seed=99)
        save_checkpoint(path, other, stats5())
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(flatten_parameters(loaded),
                                      flatten_parameters(other))
        assert list(tmp_path.iterdir()) == [path]  # no stray temp files

    def test_mode_follows_umask(self, tmp_path):
        path = tmp_path / "ck.txt"
        old = os.umask(0o022)
        try:
            save_checkpoint(path, small_model(), stats5())
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644


def refused_edit(tmp_path, edit):
    """A checkpoint of small_model() with `edit` applied to its lines."""
    path = tmp_path / "ck.txt"
    save_checkpoint(path, small_model(), stats5())
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return path


class TestV1Fixture:
    """tests/data/checkpoint_v1.txt was written by the v1 writer: the 2 x 3
    small_model() (features 5, classes 3) with stats5()."""

    def test_loads_bit_exact_and_rewrites_same_bytes(self, tmp_path):
        model, stats = load_checkpoint(V1_FIXTURE)
        expected = small_model()
        assert model.config == expected.config
        np.testing.assert_array_equal(flatten_parameters(model),
                                      flatten_parameters(expected))
        np.testing.assert_array_equal(stats.minimum, stats5().minimum)
        np.testing.assert_array_equal(stats.maximum, stats5().maximum)
        save_checkpoint(tmp_path / "ck.txt", model, stats)
        assert (tmp_path / "ck.txt").read_bytes() == V1_FIXTURE.read_bytes()

    def test_swapped_tensors_refused(self, tmp_path):
        # the layer0.b_i and layer0.b_f blocks (a tensor line and its row)
        # trade places: names and shapes still right, only the order is not
        lines = V1_FIXTURE.read_text().splitlines()
        assert lines[24] == "tensor layer0.b_i 3 0"
        assert lines[26] == "tensor layer0.b_f 3 0"
        path = tmp_path / "swapped.txt"
        path.write_text("\n".join(lines[:24] + lines[26:28] + lines[24:26]
                                  + lines[28:]) + "\n")
        with pytest.raises(CheckpointError, match=re.escape(
                "line 25: expected 'tensor layer0.b_i 3 0', "
                "found 'tensor layer0.b_f 3 0'")):
            load_checkpoint(path)
        assert main(["evaluate", "--checkpoint", str(path),
                     "--data", str(tmp_path)]) == 1


class TestValidation:
    @pytest.mark.parametrize("edit, match", [
        (lambda lines: lines + ["tensor bogus 1 0", "0"],
         "line 63: expected end of file, found 'tensor bogus 1 0'"),
        (lambda lines: lines + ["tensor dense.b_out 3 0", "9 9 9"],
         "line 63: expected end of file, found 'tensor dense.b_out 3 0'"),
        (lambda lines: lines[:3] + ["hidden 3"] + lines[3:],
         "line 4: expected 'features', found 'hidden'"),
        (lambda lines: lines[:3] + ["window 10"] + lines[3:],
         "line 4: expected 'features', found 'window'"),
        # the norm_min and norm_max lines trade places
        (lambda lines: lines[:6] + [lines[7], lines[6]] + lines[8:],
         "line 7: expected 'norm_min', found 'norm_max'"),
        # layer0.b_f (lines 27-28) is left out
        (lambda lines: lines[:26] + lines[28:],
         "line 27: expected 'tensor layer0.b_f 3 0', "
         "found 'tensor layer0.b_c 3 0'"),
    ], ids=["unexpected-tensor", "repeated-tensor", "repeated-header-key",
            "unexpected-header-key", "header-keys-swapped",
            "middle-tensor-missing"])
    def test_unexpected_or_repeated_entry(self, tmp_path, edit, match):
        with pytest.raises(CheckpointError, match=re.escape(match)):
            load_checkpoint(refused_edit(tmp_path, edit))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "missing.txt")
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path)  # a directory

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "ck.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(CheckpointError, match=re.escape(
                "line 1: expected 'congestionlab-checkpoint v1', "
                "found 'not a checkpoint'")):
            load_checkpoint(path)
        path.write_text("")
        with pytest.raises(CheckpointError, match=re.escape(
                "line 1: expected 'congestionlab-checkpoint v1', "
                "found end of file")):
            load_checkpoint(path)

    def test_missing_tensor(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        lines = path.read_text().splitlines()
        drop = next(i for i, ln in enumerate(lines)
                    if ln.startswith("tensor dense.b_out"))
        path.write_text("\n".join(lines[:drop]) + "\n")
        with pytest.raises(CheckpointError, match=re.escape(
                "line 61: expected 'tensor dense.b_out 3 0', found end of file")):
            load_checkpoint(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        text = path.read_text().replace("tensor dense.b_out 3 0",
                                        "tensor dense.b_out 2 0")
        # also shrink the data row so the declared shape parses
        lines = text.splitlines()
        idx = next(i for i, ln in enumerate(lines)
                   if ln.startswith("tensor dense.b_out")) + 1
        lines[idx] = " ".join(lines[idx].split()[:2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match=re.escape(
                "line 61: expected 'tensor dense.b_out 3 0', "
                "found 'tensor dense.b_out 2 0'")):
            load_checkpoint(path)

    @pytest.mark.parametrize("row, shape", [("0.5", "(1, 1)"),
                                            ("0.5 0.5 0.5 0.5", "(1, 4)")])
    def test_row_of_wrong_width_refused(self, tmp_path, row, shape):
        # one value must not broadcast over the row
        path = refused_edit(tmp_path, lambda lines: lines[:-1] + [row])
        with pytest.raises(CheckpointError, match=re.escape(
                "line 62: tensor dense.b_out is truncated or malformed "
                f"(shape {shape}, expected (1, 3))")):
            load_checkpoint(path)

    def test_negative_row_count_refused(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        path.write_text(path.read_text().replace("tensor dense.w_out 3 3",
                                                 "tensor dense.w_out -1 3"))
        with pytest.raises(CheckpointError, match=re.escape(
                "line 57: expected 'tensor dense.w_out 3 3', "
                "found 'tensor dense.w_out -1 3'")):
            load_checkpoint(path)

    def test_bad_header(self, tmp_path):
        path = refused_edit(tmp_path, lambda lines: (
            lines[:1] + ["layers nope"] + lines[2:]))
        with pytest.raises(CheckpointError, match=re.escape(
                "bad header (invalid literal for int() with base 10: 'nope')")):
            load_checkpoint(path)
        path.write_text(MAGIC + "\nlayers nope\n")
        with pytest.raises(CheckpointError, match=re.escape(
                "line 3: expected 'hidden', found end of file")):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(CheckpointError, match=re.escape(
                "line 58: tensor dense.w_out is truncated or malformed (")):
            load_checkpoint(path)
        assert main(["evaluate", "--checkpoint", str(path),
                     "--data", str(tmp_path)]) == 1

    def test_garbled_tensor_header(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        text = path.read_text().replace("tensor layer0.w_f 3 8",
                                        "tensor layer0.w_f three 8")
        path.write_text(text)
        with pytest.raises(CheckpointError, match=re.escape(
                "line 13: expected 'tensor layer0.w_f 3 8', "
                "found 'tensor layer0.w_f three 8'")):
            load_checkpoint(path)
        assert main(["evaluate", "--checkpoint", str(path),
                     "--data", str(tmp_path)]) == 1

    def test_norm_width_must_match_features(self, tmp_path):
        path = tmp_path / "ck.txt"
        model = small_model()
        save_checkpoint(path, model,
                        NormalizationStats([0.0] * 5, [1.0] * 5))
        text = path.read_text().replace("norm_min 0 0 0 0 0",
                                        "norm_min 0 0 0")
        text = text.replace("norm_max 1 1 1 1 1", "norm_max 1 1 1")
        path.write_text(text)
        with pytest.raises(CheckpointError, match="normalization width"):
            load_checkpoint(path)

    def test_non_finite_tensor_values(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        lines = path.read_text().splitlines()
        idx = next(i for i, ln in enumerate(lines)
                   if ln.startswith("tensor dense.b_out")) + 1
        lines[idx] = "nan inf 0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="dense.b_out.*non-finite"):
            load_checkpoint(path)

    def test_non_finite_normalization_stats(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        text = path.read_text()
        assert "norm_min 0 1 " in text
        path.write_text(text.replace("norm_min 0 1 ", "norm_min nan 1 "))
        with pytest.raises(CheckpointError,
                           match="non-finite normalization stats"):
            load_checkpoint(path)

    def test_header_larger_than_file_refused(self, tmp_path):
        # refused before a tensor of the declared size is allocated
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        path.write_text(path.read_text().replace("hidden 3\n",
                                                 "hidden 100000\n"))
        with pytest.raises(CheckpointError, match="more parameters"):
            load_checkpoint(path)

    @pytest.mark.parametrize("features, classes", [(3, 3), (5, 4)])
    def test_off_telemetry_schema_refused(self, tmp_path, features, classes):
        path = tmp_path / "ck.txt"
        model = init_parameters(ModelConfig(hidden_units=2, num_layers=1,
                                            features=features,
                                            classes=classes), seed=0)
        save_checkpoint(path, model, NormalizationStats([0.0] * features,
                                                        [1.0] * features))
        with pytest.raises(CheckpointError, match=(
                rf"checkpoint \(features, classes\) \({features}, {classes}\) "
                "does not fit the telemetry schema")):
            load_checkpoint(path)
