"""Self-describing flat text checkpoint for a model plus normalization stats.

Layout (UTF-8, line oriented, documented in the README):

    congestionlab-checkpoint v1
    layers <n>  / hidden <H> / features <F> / classes <C> / dropout <rate>
    norm_min <F space-separated %.17g values>
    norm_max <F values>
    tensor <name> <rows> <cols|0 for vectors>
    <one line of %.17g values per row>

Tensor order follows nn.parameter_items.  %.17g round-trips float64 exactly.
The loader reads the file in the order the writer puts it, in one pass: a
line other than the one expected at its place (so a missing, repeated,
unknown or out-of-order header key or tensor, or anything after the last
tensor) is refused, naming what was expected and what was found.  So is a
model whose (features, classes) are not the telemetry schema's.
Writes are atomic (temp file + rename), so a failed write never leaves a
partial checkpoint behind; the file's mode follows the umask.
"""

from __future__ import annotations

import os
import reprlib
from pathlib import Path

import numpy as np

from .nn import (ModelConfig, ModelParameters, parameter_count,
                 parameter_items, zero_parameters)
from .telemetry import FEATURE_COUNT, CongestionLevel, NormalizationStats

MAGIC = "congestionlab-checkpoint v1"
HEADER_KEYS = ("layers", "hidden", "features", "classes", "dropout",
               "norm_min", "norm_max")
END = "\n"  # the loader's mark past the last line; no line read equals it


class CheckpointError(ValueError):
    pass


def _fmt_row(values) -> str:
    return " ".join(f"{v:.17g}" for v in values)


def _tensor_line(name: str, arr: np.ndarray) -> str:
    """The line that opens a tensor: `tensor <name> <rows> <cols|0>`."""
    return f"tensor {name} {arr.shape[0]} {arr.shape[1] if arr.ndim == 2 else 0}"


def _shown(text: str) -> str:
    return "end of file" if text == END else reprlib.repr(text)


def save_checkpoint(path, model: ModelParameters,
                    stats: NormalizationStats) -> None:
    cfg = model.config
    header = (cfg.num_layers, cfg.hidden_units, cfg.features, cfg.classes,
              f"{cfg.dropout_rate:.17g}", _fmt_row(stats.minimum),
              _fmt_row(stats.maximum))
    lines = [MAGIC] + [f"{key} {value}"
                       for key, value in zip(HEADER_KEYS, header, strict=True)]
    for name, arr in parameter_items(model):
        lines.append(_tensor_line(name, arr))
        lines += map(_fmt_row, np.atleast_2d(arr))  # a vector is one row

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # os.open with 0o666 lets the umask set the mode (mkstemp's is 0600)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[ModelParameters, NormalizationStats]:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with path.open("r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh] + [END]
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: cannot read ({exc})") from None

    def expect(pos: int, expected: str, found: str) -> None:
        """The one position check: line `pos` (its key, in the header) is
        what save_checkpoint writes there."""
        if found != expected:
            raise CheckpointError(f"{path}: line {pos + 1}: expected "
                                  f"{_shown(expected)}, found {_shown(found)}")

    expect(0, MAGIC, lines[0])
    values = []
    for pos, key in enumerate(HEADER_KEYS, start=1):
        found, _, value = lines[pos].partition(" ")
        expect(pos, key, found)
        values.append(value)
    layers, hidden, features, classes, dropout, norm_min, norm_max = values
    try:
        config = ModelConfig(num_layers=int(layers), hidden_units=int(hidden),
                             features=int(features), classes=int(classes),
                             dropout_rate=float(dropout))
        stats = NormalizationStats(
            np.array([float(v) for v in norm_min.split()]),
            np.array([float(v) for v in norm_max.split()]))
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad header ({exc})") from None
    if not np.isfinite([stats.minimum, stats.maximum]).all():
        raise CheckpointError(f"{path}: non-finite normalization stats")
    widths = (config.features, config.classes)
    if widths != (FEATURE_COUNT, len(CongestionLevel)):
        raise CheckpointError(f"{path}: checkpoint (features, classes) "
                              f"{widths} does not fit the telemetry schema")
    if stats.minimum.shape[0] != config.features:
        raise CheckpointError(f"{path}: normalization width does not match features")
    # every value takes at least one character: refuse a header that declares
    # more layers or parameters than the file could hold before allocating
    size = sum(map(len, lines))
    if config.num_layers > size or parameter_count(config) > size:
        raise CheckpointError(
            f"{path}: header declares more parameters than the file holds")

    model = zero_parameters(config)
    pos = len(HEADER_KEYS) + 1
    for name, arr in parameter_items(model):
        expect(pos, _tensor_line(name, arr), lines[pos])
        rows = np.atleast_2d(arr)  # a view of arr; a vector is one row
        try:
            data = np.array([[float(v) for v in line.split()]
                             for line in lines[pos + 1:pos + 1 + len(rows)]])
            if data.shape != rows.shape:
                raise ValueError(f"shape {data.shape}, expected {rows.shape}")
        except ValueError as exc:
            raise CheckpointError(f"{path}: line {pos + 2}: tensor {name} is "
                                  f"truncated or malformed ({exc})") from None
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: tensor {name} has non-finite values")
        rows[...] = data
        pos += 1 + len(rows)
    expect(pos, END, lines[pos])
    return model, stats
