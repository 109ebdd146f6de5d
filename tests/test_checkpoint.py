"""Checkpoint format: exact round-trip, validation, atomic writes."""

import numpy as np
import pytest

from congestionlab.checkpoint import (MAGIC, CheckpointError, load_checkpoint,
                                      save_checkpoint)
from congestionlab.cli import main
from congestionlab.nn import (ModelConfig, flatten_parameters,
                              init_parameters)
from congestionlab.telemetry import NormalizationStats


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


class TestValidation:
    @pytest.mark.parametrize("edit, match", [
        (lambda lines: lines + ["tensor bogus 1 0", "0"],
         "unexpected tensor bogus"),
        (lambda lines: lines + ["tensor dense.b_out 3 0", "9 9 9"],
         "repeated tensor dense.b_out"),
        (lambda lines: lines[:3] + ["hidden 3"] + lines[3:],
         "repeated header key 'hidden'"),
        (lambda lines: lines[:3] + ["window 10"] + lines[3:],
         "unexpected header key 'window'"),
    ], ids=["unexpected-tensor", "repeated-tensor", "repeated-header-key",
            "unexpected-header-key"])
    def test_unexpected_or_repeated_entry(self, tmp_path, edit, match):
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "missing.txt")

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "ck.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(CheckpointError, match="not a congestionlab"):
            load_checkpoint(path)

    def test_missing_tensor(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        lines = path.read_text().splitlines()
        drop = next(i for i, ln in enumerate(lines)
                    if ln.startswith("tensor dense.b_out"))
        path.write_text("\n".join(lines[:drop]) + "\n")
        with pytest.raises(CheckpointError, match="missing tensor"):
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
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "ck.txt"
        path.write_text(MAGIC + "\nlayers nope\n")
        with pytest.raises(CheckpointError, match="bad header"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)
        assert main(["evaluate", "--checkpoint", str(path),
                     "--data", str(tmp_path)]) == 1

    def test_garbled_tensor_header(self, tmp_path):
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        text = path.read_text().replace("tensor layer0.w_f 3 8",
                                        "tensor layer0.w_f three 8")
        path.write_text(text)
        with pytest.raises(CheckpointError, match="layer0.w_f"):
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
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    def test_header_larger_than_file_refused(self, tmp_path):
        # refused before a tensor of the declared size is allocated
        path = tmp_path / "ck.txt"
        save_checkpoint(path, small_model(), stats5())
        path.write_text(path.read_text().replace("hidden 3\n",
                                                 "hidden 100000\n"))
        with pytest.raises(CheckpointError, match="more parameters"):
            load_checkpoint(path)
