"""Self-describing flat text checkpoint for a model plus normalization stats.

Layout (UTF-8, line oriented, documented in the README):

    congestionlab-checkpoint v1
    layers <n>  / hidden <H> / features <F> / classes <C> / dropout <rate>
    norm_min <F space-separated %.17g values>
    norm_max <F values>
    tensor <name> <rows> <cols|0 for vectors>
    <one line of %.17g values per row>

Tensor order follows nn.parameter_items.  %.17g round-trips float64 exactly.
A repeated or unknown header key or tensor name is refused, as is a missing
tensor and a model whose (features, classes) are not the telemetry schema's.
Writes are atomic (temp file + rename), so a failed write never leaves a
partial checkpoint behind; the file's mode follows the umask.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .nn import (ModelConfig, ModelParameters, parameter_count,
                 parameter_items, zero_parameters)
from .telemetry import FEATURE_COUNT, CongestionLevel, NormalizationStats

MAGIC = "congestionlab-checkpoint v1"
HEADER_KEYS = ("layers", "hidden", "features", "classes", "dropout",
               "norm_min", "norm_max")


class CheckpointError(ValueError):
    pass


def _fmt_row(values) -> str:
    return " ".join(f"{v:.17g}" for v in values)


def save_checkpoint(path, model: ModelParameters,
                    stats: NormalizationStats) -> None:
    cfg = model.config
    lines = [
        MAGIC,
        f"layers {cfg.num_layers}",
        f"hidden {cfg.hidden_units}",
        f"features {cfg.features}",
        f"classes {cfg.classes}",
        f"dropout {cfg.dropout_rate:.17g}",
        f"norm_min {_fmt_row(stats.minimum)}",
        f"norm_max {_fmt_row(stats.maximum)}",
    ]
    for name, arr in parameter_items(model):
        if arr.ndim == 2:
            lines.append(f"tensor {name} {arr.shape[0]} {arr.shape[1]}")
            for row in arr:
                lines.append(_fmt_row(row))
        else:
            lines.append(f"tensor {name} {arr.shape[0]} 0")
            lines.append(_fmt_row(arr))

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
            lines = [line.rstrip("\n") for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: cannot read ({exc})") from None
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"{path}: not a congestionlab checkpoint")

    header: dict[str, str] = {}
    idx = 1
    while idx < len(lines) and not lines[idx].startswith("tensor "):
        key, _, value = lines[idx].partition(" ")
        if key in header or key not in HEADER_KEYS:
            problem = "repeated" if key in header else "unexpected"
            raise CheckpointError(f"{path}: {problem} header key {key!r}")
        header[key] = value
        idx += 1
    try:
        config = ModelConfig(
            num_layers=int(header["layers"]),
            hidden_units=int(header["hidden"]),
            features=int(header["features"]),
            classes=int(header["classes"]),
            dropout_rate=float(header["dropout"]),
        )
        stats = NormalizationStats(
            np.array([float(v) for v in header["norm_min"].split()]),
            np.array([float(v) for v in header["norm_max"].split()]),
        )
    except (KeyError, ValueError) as exc:
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

    tensors: dict[str, np.ndarray] = {}
    while idx < len(lines):
        if not lines[idx].strip():
            idx += 1
            continue
        parts = lines[idx].split()
        if parts[0] != "tensor" or len(parts) != 4:
            raise CheckpointError(f"{path}: malformed tensor header {lines[idx]!r}")
        if parts[1] in tensors:
            raise CheckpointError(f"{path}: repeated tensor {parts[1]}")
        try:
            name, rows, cols = parts[1], int(parts[2]), int(parts[3])
            data = [[float(v) for v in lines[idx + 1 + k].split()]
                    for k in range(rows if cols else 1)]  # a vector: one line
            tensors[name] = np.array(data if cols else data[0])
            idx += 1 + len(data)
        except (IndexError, ValueError) as exc:
            raise CheckpointError(
                f"{path}: truncated or malformed tensor {parts[1]} ({exc})"
            ) from None

    # fill the model in canonical order; fail loudly on missing, mismatched
    # or unexpected tensors
    model = zero_parameters(config)
    for name, arr in parameter_items(model):
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name}")
        value = tensors.pop(name)
        if value.shape != arr.shape:
            raise CheckpointError(f"{path}: tensor {name} has shape "
                                  f"{value.shape}, expected {arr.shape}")
        if not np.isfinite(value).all():
            raise CheckpointError(f"{path}: tensor {name} has non-finite values")
        arr[...] = value
    if tensors:
        raise CheckpointError(f"{path}: unexpected tensor {next(iter(tensors))}")
    return model, stats
