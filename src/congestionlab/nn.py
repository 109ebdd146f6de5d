"""Stacked LSTM congestion classifier, implemented directly in numpy.

Gate convention: each gate acts on the concatenation [h_{t-1}, x_t], so every
weight matrix has shape (H, H + D) where D is the layer's input width.  The
classifier reads only the final step's top-layer hidden state through a dense
softmax head.  Dropout (inverted, train-time scaled) sits between the two
recurrent layers.

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


@dataclass
class LstmLayerParameters:
    """The four gate weight matrices (H, H+D) and bias vectors (H,)."""

    w_i: np.ndarray
    w_f: np.ndarray
    w_c: np.ndarray
    w_o: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray

    def __post_init__(self):
        shapes = {self.w_i.shape, self.w_f.shape, self.w_c.shape, self.w_o.shape}
        if len(shapes) != 1:
            raise ValueError("gate weight matrices must share one shape")
        h = self.w_i.shape[0]
        for b in (self.b_i, self.b_f, self.b_c, self.b_o):
            if b.shape != (h,):
                raise ValueError("bias length must equal hidden size")

    @property
    def hidden_units(self) -> int:
        return self.w_i.shape[0]

    @property
    def input_width(self) -> int:
        return self.w_i.shape[1] - self.w_i.shape[0]


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
    layer_i: list[np.ndarray]
    layer_f: list[np.ndarray]
    layer_c_tilde: list[np.ndarray]
    layer_o: list[np.ndarray]
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

    trace = ForwardTrace(inputs=inputs, layer_z=[], layer_i=[], layer_f=[],
                         layer_c_tilde=[], layer_o=[], layer_h=[], layer_c=[])

    layer_input = inputs.transpose(1, 0, 2)  # (T, B, D)
    for layer_idx, lp in enumerate(model.layers):
        din = lp.input_width
        z_all = np.zeros((steps, batch, hid + din))
        i_all = np.zeros((steps, batch, hid))
        f_all = np.zeros((steps, batch, hid))
        ct_all = np.zeros((steps, batch, hid))
        o_all = np.zeros((steps, batch, hid))
        h_all = np.zeros((steps + 1, batch, hid))
        c_all = np.zeros((steps + 1, batch, hid))
        for t in range(steps):
            z = np.concatenate([h_all[t], layer_input[t]], axis=1)
            i = sigmoid(z @ lp.w_i.T + lp.b_i)
            f = sigmoid(z @ lp.w_f.T + lp.b_f)
            c_tilde = np.tanh(z @ lp.w_c.T + lp.b_c)
            c = f * c_all[t] + i * c_tilde
            o = sigmoid(z @ lp.w_o.T + lp.b_o)
            h = o * np.tanh(c)
            z_all[t], i_all[t], f_all[t] = z, i, f
            ct_all[t], o_all[t] = c_tilde, o
            c_all[t + 1], h_all[t + 1] = c, h
        trace.layer_z.append(z_all)
        trace.layer_i.append(i_all)
        trace.layer_f.append(f_all)
        trace.layer_c_tilde.append(ct_all)
        trace.layer_o.append(o_all)
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
            w_i=glorot(hid, hid + din),
            w_f=glorot(hid, hid + din),
            w_c=glorot(hid, hid + din),
            w_o=glorot(hid, hid + din),
            b_i=np.zeros(hid),
            b_f=np.ones(hid),
            b_c=np.zeros(hid),
            b_o=np.zeros(hid),
        ))
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
        for gate in ("i", "f", "c", "o"):
            items.append((f"layer{idx}.w_{gate}", getattr(lp, f"w_{gate}")))
        for gate in ("i", "f", "c", "o"):
            items.append((f"layer{idx}.b_{gate}", getattr(lp, f"b_{gate}")))
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
        ws = {g: take((hid, hid + din)) for g in ("i", "f", "c", "o")}
        bs = {g: take((hid,)) for g in ("i", "f", "c", "o")}
        layers.append(LstmLayerParameters(
            w_i=ws["i"], w_f=ws["f"], w_c=ws["c"], w_o=ws["o"],
            b_i=bs["i"], b_f=bs["f"], b_c=bs["c"], b_o=bs["o"]))
    dense = DenseParameters(w_out=take((config.classes, hid)),
                            b_out=take((config.classes,)))
    return ModelParameters(config=config, layers=layers, dense=dense)
