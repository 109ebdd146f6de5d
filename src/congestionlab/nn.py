"""Stacked LSTM congestion classifier, implemented directly in numpy.

Gate convention: the four gates (i, f, c, o, named by GATES) are one affine
map of the concatenation [h_{t-1}, x_t], stored gate-major: a layer's weights
are one (4, H, H + D) stack and its biases one (4, H) stack, where D is the
layer's input width.  The classifier reads only the final step's top-layer
hidden state through a dense softmax head.  Dropout (inverted, train-time
scaled) sits between the two recurrent layers.

`forward_batch` is the only implementation of the recurrence.  It runs a
(B, T, F) batch from a zero initial state and keeps a full trace (gate
activations, cell states, dropout masks) so backpropagation through time can
be run over it afterwards; `forward` is the same call at B=1 for one (T, F)
window.  All arrays are float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .telemetry import CongestionLevel


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def softmax(logits):
    """Max-subtracted softmax along the last axis."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


@dataclass
class ModelConfig:
    hidden_units: int = 64
    num_layers: int = 2
    features: int = 5
    classes: int = 3
    dropout_rate: float = 0.2

    def __post_init__(self):
        if self.hidden_units < 1 or self.num_layers < 1 or self.features < 1 \
                or self.classes < 2:
            raise ValueError("model dimensions must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must be in [0,1)")

    def layer_input_width(self, layer: int) -> int:
        return self.features if layer == 0 else self.hidden_units


GATES = ("i", "f", "c", "o")


def _gate_view(stack: str, k: int) -> property:
    """Read/write view of gate k of the `stack` attribute."""

    def get(self):
        return getattr(self, stack)[k]

    def set(self, value):
        getattr(self, stack)[k] = value
    return property(get, set)


@dataclass(init=False)
class LstmLayerParameters:
    """Gate weights w (4, H, H+D) and biases b (4, H), stacked in GATES order;
    w_i..w_o and b_i..b_o read and write one gate of the stack."""

    w: np.ndarray
    b: np.ndarray

    def __init__(self, w_i, w_f, w_c, w_o, b_i, b_f, b_c, b_o):
        ws = [np.asarray(w, dtype=float) for w in (w_i, w_f, w_c, w_o)]
        bs = [np.asarray(b, dtype=float) for b in (b_i, b_f, b_c, b_o)]
        if len({w.shape for w in ws}) != 1 or ws[0].ndim != 2:
            raise ValueError("gate weight matrices must share one shape")
        if any(b.shape != ws[0].shape[:1] for b in bs):
            raise ValueError("bias length must equal hidden size")
        self.w, self.b = np.stack(ws), np.stack(bs)

    w_i, w_f, w_c, w_o = (_gate_view("w", k) for k in range(4))
    b_i, b_f, b_c, b_o = (_gate_view("b", k) for k in range(4))

    @property
    def hidden_units(self) -> int:
        return self.w.shape[1]

    @property
    def input_width(self) -> int:
        return self.w.shape[2] - self.w.shape[1]


@dataclass
class DenseParameters:
    w_out: np.ndarray  # (classes, H)
    b_out: np.ndarray  # (classes,)


@dataclass
class ModelParameters:
    config: ModelConfig
    layers: list[LstmLayerParameters]
    dense: DenseParameters

    def copy(self) -> "ModelParameters":
        return unflatten_parameters(self.config, flatten_parameters(self))


@dataclass
class ForwardTrace:
    """Everything backward() needs: per-layer stacked activations and masks.

    Arrays are indexed [t, b, ...]; h_all/c_all carry T+1 entries with the
    zero initial state at index 0.
    """

    inputs: np.ndarray                       # (B, T, F)
    layer_z: list[np.ndarray]                # per layer: (T, B, H+D)
    layer_gates: list[np.ndarray]            # (T, 4, B, H): i, f, c~, o
    layer_h: list[np.ndarray]                # (T+1, B, H)
    layer_c: list[np.ndarray]                # (T+1, B, H)
    dropout_masks: list[np.ndarray] = field(default_factory=list)  # (T, B, H)
    final_hidden: np.ndarray | None = None   # (B, H)
    probabilities: np.ndarray | None = None  # (B, classes)


def dense_softmax(params: DenseParameters, h: np.ndarray) -> np.ndarray:
    """Class probabilities from a hidden vector (or batch of them)."""
    logits = np.asarray(h, dtype=float) @ params.w_out.T + params.b_out
    return softmax(logits)


def predict_class(probabilities) -> CongestionLevel:
    """Argmax with ties broken toward the higher congestion level."""
    p = np.asarray(probabilities, dtype=float)
    # reversed argmax returns the last index among tied maxima
    idx = len(p) - 1 - int(np.argmax(p[::-1]))
    return CongestionLevel(idx)


def apply_dropout(h: np.ndarray, rate: float = 0.2,
                  rng: np.random.Generator | None = None,
                  train: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: zero with probability `rate`, scale survivors by
    1/(1-rate).  Identity (all-ones mask) in inference mode or at rate 0."""
    h = np.asarray(h, dtype=float)
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0,1)")
    if not train or rate == 0.0:
        return h, np.ones_like(h)
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    mask = (rng.random(h.shape) >= rate) / (1.0 - rate)
    return h * mask, mask


def forward_batch(model: ModelParameters, inputs: np.ndarray, train: bool = False,
                  rng: np.random.Generator | None = None,
                  dropout_masks: list[np.ndarray] | None = None
                  ) -> tuple[np.ndarray, ForwardTrace]:
    """Run the stacked network over a (B, T, F) batch.

    In train mode dropout masks are drawn from `rng` (or reused from
    `dropout_masks`, e.g. when re-evaluating the loss for a finite-difference
    probe); in inference mode dropout is the identity.
    """
    cfg = model.config
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 3 or inputs.shape[2] != cfg.features:
        raise ValueError(f"expected (B, T, {cfg.features}) inputs, got {inputs.shape}")
    batch, steps, _ = inputs.shape
    hid = cfg.hidden_units

    trace = ForwardTrace(inputs=inputs, layer_z=[], layer_gates=[],
                         layer_h=[], layer_c=[])

    layer_input = inputs.transpose(1, 0, 2)  # (T, B, D)
    for layer_idx, lp in enumerate(model.layers):
        din = lp.input_width
        w_t, b = lp.w.transpose(0, 2, 1), lp.b[:, None]
        z_all = np.zeros((steps, batch, hid + din))
        gates_all = np.zeros((steps, 4, batch, hid))
        h_all = np.zeros((steps + 1, batch, hid))
        c_all = np.zeros((steps + 1, batch, hid))
        for t in range(steps):
            z = np.concatenate([h_all[t], layer_input[t]], axis=1)
            a = z @ w_t  # (4, B, H) pre-activations
            a += b
            i, f, c_tilde, o = gates_all[t]
            i[:], f[:], o[:] = sigmoid(a[0]), sigmoid(a[1]), sigmoid(a[3])
            c_tilde[:] = np.tanh(a[2])
            c = f * c_all[t] + i * c_tilde
            z_all[t], c_all[t + 1], h_all[t + 1] = z, c, o * np.tanh(c)
        trace.layer_z.append(z_all)
        trace.layer_gates.append(gates_all)
        trace.layer_h.append(h_all)
        trace.layer_c.append(c_all)

        layer_output = h_all[1:]  # (T, B, H)
        if layer_idx < len(model.layers) - 1:
            if train and cfg.dropout_rate > 0.0 and dropout_masks is not None:
                mask = dropout_masks[layer_idx]
                layer_output = layer_output * mask
            else:
                layer_output, mask = apply_dropout(
                    layer_output, cfg.dropout_rate, rng, train)
            trace.dropout_masks.append(mask)
        layer_input = layer_output

    final_h = trace.layer_h[-1][-1]  # (B, H)
    probs = dense_softmax(model.dense, final_h)
    trace.final_hidden = final_h
    trace.probabilities = probs
    return probs, trace


def forward(model: ModelParameters, sample_inputs: np.ndarray, train: bool = False,
            rng: np.random.Generator | None = None,
            dropout_masks: list[np.ndarray] | None = None
            ) -> tuple[np.ndarray, ForwardTrace]:
    """forward_batch at B=1 over one (T, F) window; returns that sample's
    probabilities and the batch trace."""
    inputs = np.asarray(sample_inputs, dtype=float)
    if inputs.ndim != 2:
        raise ValueError(f"expected (T, F) inputs, got shape {inputs.shape}")
    probs, trace = forward_batch(model, inputs[None], train=train, rng=rng,
                                 dropout_masks=dropout_masks)
    return probs[0], trace


def init_parameters(config: ModelConfig, seed: int = 0) -> ModelParameters:
    """Glorot-uniform weights, zero biases except forget-gate biases at 1.0."""
    rng = np.random.default_rng(seed)
    hid = config.hidden_units

    def glorot(rows, cols):
        limit = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    layers = []
    for layer in range(config.num_layers):
        din = config.layer_input_width(layer)
        layers.append(LstmLayerParameters(
            *(glorot(hid, hid + din) for _ in GATES),
            b_i=np.zeros(hid), b_f=np.ones(hid), b_c=np.zeros(hid),
            b_o=np.zeros(hid)))
    dense = DenseParameters(
        w_out=glorot(config.classes, hid),
        b_out=np.zeros(config.classes),
    )
    return ModelParameters(config=config, layers=layers, dense=dense)


def parameter_count(config: ModelConfig) -> int:
    """Closed-form total entry count of all weight and bias tensors."""
    hid = config.hidden_units
    total = 0
    for layer in range(config.num_layers):
        din = config.layer_input_width(layer)
        total += 4 * (hid * (hid + din) + hid)
    total += config.classes * hid + config.classes
    return total


def parameter_items(model: ModelParameters) -> list[tuple[str, np.ndarray]]:
    """Canonical (name, array) flattening order used by the optimizer,
    the checkpoint format, and the finite-difference oracle."""
    items = []
    for idx, lp in enumerate(model.layers):
        items += [(f"layer{idx}.w_{g}", lp.w[k]) for k, g in enumerate(GATES)]
        items += [(f"layer{idx}.b_{g}", lp.b[k]) for k, g in enumerate(GATES)]
    items.append(("dense.w_out", model.dense.w_out))
    items.append(("dense.b_out", model.dense.b_out))
    return items


def flatten_parameters(model: ModelParameters) -> np.ndarray:
    return np.concatenate([arr.ravel() for _, arr in parameter_items(model)])


def unflatten_parameters(config: ModelConfig, theta: np.ndarray) -> ModelParameters:
    theta = np.asarray(theta, dtype=float)
    if theta.size != parameter_count(config):
        raise ValueError(f"parameter vector length {theta.size} != "
                         f"{parameter_count(config)}")
    hid = config.hidden_units
    pos = 0

    def take(shape):
        nonlocal pos
        size = int(np.prod(shape))
        arr = theta[pos:pos + size].reshape(shape).copy()
        pos += size
        return arr

    layers = []
    for layer in range(config.num_layers):
        din = config.layer_input_width(layer)
        w, b = take((4, hid, hid + din)), take((4, hid))
        layers.append(LstmLayerParameters(*w, *b))
    dense = DenseParameters(w_out=take((config.classes, hid)),
                            b_out=take((config.classes,)))
    return ModelParameters(config=config, layers=layers, dense=dense)
