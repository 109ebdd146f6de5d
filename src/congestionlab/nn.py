"""Stacked LSTM congestion classifier, implemented directly in numpy.

Gate convention: the four gates (i, f, c, o, named by GATES) are one affine
map of the concatenation [h_{t-1}, x_t], stored gate-major: a layer's weights
are one (4, H, H + D) stack and its biases one (4, H) stack, where D is the
layer's input width.  The classifier reads only the final step's top-layer
hidden state through a dense softmax head.  Dropout (inverted, train-time
scaled) sits between consecutive recurrent layers.

There is one recurrence, run over a (B, T, F) batch from a zero initial
state, time-major: each step runs every layer, bottom to top.
`forward_batch` keeps a full trace (gate activations, cell states, dropout
masks) so backpropagation through time can be run over it afterwards;
`forward` is the same call at B=1 for one (T, F) window.  `predict` returns
only the inference-mode probabilities, with the same bits: it holds one step
per layer, so its memory does not grow with T.  All arrays are float64.

Each step makes one matmul for all four gate pre-activations, then one
`sigmoid` call over all four, written straight into the gate array; `tanh`
then overwrites gate 2 (c~) in place.  Both activations are elementwise, so
this gives the same bits as activating each gate on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .telemetry import FEATURE_COUNT, CongestionLevel, check_fields


def sigmoid(x, out=None):
    """Numerically stable logistic function, elementwise; a 0-d input gives
    a float, and `out` (which may be x itself) receives the result.

    e is exp(-x) where x >= 0 and exp(x) elsewhere, so the result is
    1 / (1 + exp(-x)) and exp(x) / (1 + exp(x)) per element, unmasked.  The
    numerator exp(min(x, 0)) is exactly 1.0 where x >= 0, and where x < 0
    min(x, 0) equals min(x, -x), so it is e bit for bit: no select is needed.
    minimum (not -abs) passes a NaN through with its sign.

    The LSTM step calls this once over all four gate pre-activations, into
    the trace, and then lets tanh overwrite gate 2 (c~): both are
    elementwise, so each gate's bits are those of activating it alone.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(sigmoid(x.reshape(1))[0])
    # e is the one temporary; the numerator is built in `out`, and x is not
    # read once it is
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    e += 1.0
    num = np.minimum(x, 0.0, out=out)
    np.exp(num, out=num)
    return np.divide(num, e, out=num)


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
    features: int = FEATURE_COUNT
    classes: int = len(CongestionLevel)
    dropout_rate: float = 0.2

    def __post_init__(self):
        check_fields(self, ValueError, non_negative=("dropout_rate",),
                     positive=("hidden_units", "num_layers", "features"))
        if self.classes < 2 or self.dropout_rate >= 1.0:
            raise ValueError("need classes >= 2 and dropout rate below 1")

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

    Arrays are indexed [t, b, ...]; layer_h and layer_c carry T+1 entries
    with the zero initial state at index 0.  Each hidden state is stored
    once: layer_z[k] is the first T slots of a (T+1, B, H+D) array and
    layer_h[k] is a view of its h columns, so layer_h[k][t] is
    layer_z[k][t, :, :H] for t < T.
    """

    inputs: np.ndarray                       # (B, T, F)
    layer_z: list[np.ndarray]                # per layer: (T, B, H+D)
    layer_gates: list[np.ndarray]            # (T, 4, B, H): i, f, c~, o
    layer_h: list[np.ndarray]                # (T+1, B, H)
    layer_c: list[np.ndarray]                # (T+1, B, H)
    dropout_masks: list[np.ndarray] = field(default_factory=list)  # train only
    final_hidden: np.ndarray | None = None   # (B, H)
    probabilities: np.ndarray | None = None  # (B, classes)


def dense_softmax(params: DenseParameters, h: np.ndarray) -> np.ndarray:
    """Class probabilities from a hidden vector (or batch of them)."""
    logits = np.asarray(h, dtype=float) @ params.w_out.T + params.b_out
    return softmax(logits)


def _recur(model: ModelParameters, inputs: np.ndarray, keep_trace: bool,
           train: bool = False, rng: np.random.Generator | None = None,
           dropout_masks: list[np.ndarray] | None = None
           ) -> tuple[np.ndarray, ForwardTrace | None]:
    """The one recurrence behind forward_batch (keep_trace) and predict.

    Time-major: each step t runs every layer, bottom to top.  A layer's
    z[s] is [h_t, x_t]; its step writes h_{t+1} into the h columns of
    z[nxt] and, through the boundary's dropout mask if any, into the x
    columns of the z[s] of the layer above.  With the trace, z and c keep
    T+1 slots (s = t, nxt = t + 1) and the gates T, and the trace's h and z
    are views of z.  Without it, z and c keep one slot per layer (s = nxt =
    0) and one gate slot serves every layer, so no sequence is held.  The
    masks, one (T, B, H) draw per boundary, bottom first, are drawn before
    the loop.  Each element's arithmetic, and so every bit, is that of a
    layer-major loop, with or without the trace.
    """
    cfg = model.config
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 3 or inputs.shape[2] != cfg.features:
        raise ValueError(f"expected (B, T, {cfg.features}) inputs, got {inputs.shape}")
    batch, steps, _ = inputs.shape
    hid, rate, top = cfg.hidden_units, cfg.dropout_rate, len(model.layers) - 1
    kept = steps + 1 if keep_trace else 1

    masks = []
    if train and rate > 0.0 and top:
        if dropout_masks is not None:
            masks = [dropout_masks[k] for k in range(top)]
        elif rng is None:
            raise ValueError("train-mode dropout needs an rng")
        else:  # the draws of a layer-major loop, in its order
            masks = [(rng.random((steps, batch, hid)) >= rate) / (1.0 - rate)
                     for _ in range(top)]

    # zeros: h_0 and c_0 are 0, and every other entry is written before use
    zs = [np.zeros((kept, batch, hid + lp.input_width)) for lp in model.layers]
    cs = [np.zeros((kept, batch, hid)) for _ in zs]
    gates_all = ([np.empty((steps, 4, batch, hid)) for _ in zs] if keep_trace
                 else [np.empty((1, 4, batch, hid))] * len(zs))
    if keep_trace:
        zs[0][:steps, :, hid:] = inputs.transpose(1, 0, 2)
    # per layer: its state and weights, the x columns of the layer above
    # (None at the top) and its dropout mask (None if it has none)
    layers = list(zip(zs, cs, gates_all,
                      [lp.w.transpose(0, 2, 1) for lp in model.layers],
                      [lp.b[:, None] for lp in model.layers],
                      [z[:, :, hid:] for z in zs[1:]] + [None],
                      masks + [None] * (len(zs) - len(masks))))
    a = np.empty((4, batch, hid))  # pre-activations, reused by every step
    ic, tanh_c = np.empty((batch, hid)), np.empty((batch, hid))
    for t in range(steps):
        s, nxt = (t, t + 1) if keep_trace else (0, 0)
        if not keep_trace:
            zs[0][0, :, hid:] = inputs[:, t]
        for z, c_all, g_all, w_t, b, x_up, mask in layers:
            np.matmul(z[s], w_t, out=a)
            a += b
            gates = sigmoid(a, out=g_all[s])
            np.tanh(a[2], out=gates[2])
            i, f, c_tilde, o = gates
            c = c_all[nxt]
            np.multiply(f, c_all[s], out=c)
            c += np.multiply(i, c_tilde, out=ic)
            h = np.multiply(np.tanh(c, out=tanh_c), o, out=z[nxt, :, :hid])
            if mask is not None:
                np.multiply(h, mask[t], out=x_up[s])
            elif x_up is not None:
                x_up[s] = h

    probs = dense_softmax(model.dense, zs[-1][-1, :, :hid])
    if not keep_trace:
        return probs, None
    return probs, ForwardTrace(
        inputs=inputs, layer_z=[z[:steps] for z in zs], layer_gates=gates_all,
        layer_h=[z[:, :, :hid] for z in zs], layer_c=cs, dropout_masks=masks,
        final_hidden=zs[-1][-1, :, :hid], probabilities=probs)


def forward_batch(model: ModelParameters, inputs: np.ndarray, train: bool = False,
                  rng: np.random.Generator | None = None,
                  dropout_masks: list[np.ndarray] | None = None
                  ) -> tuple[np.ndarray, ForwardTrace]:
    """Run the stacked network over a (B, T, F) batch and keep its trace.

    In train mode at a dropout rate above 0, each inter-layer mask is reused
    from `dropout_masks` (e.g. when re-evaluating the loss for a
    finite-difference probe) or drawn from `rng`, and kept in the trace;
    otherwise dropout is the identity and the trace holds no mask.
    """
    return _recur(model, inputs, True, train, rng, dropout_masks)


def predict(model: ModelParameters, inputs: np.ndarray) -> np.ndarray:
    """Inference-mode (B, C) class probabilities of a (B, T, F) batch, the
    bits of forward_batch's, with no trace kept."""
    return _recur(model, inputs, False)[0]


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


def zero_parameters(config: ModelConfig) -> ModelParameters:
    """The one builder of a model's tensors, zero-filled; init_parameters,
    unflatten_parameters and the checkpoint loader fill it through
    parameter_items."""
    hid = config.hidden_units
    layers = [LstmLayerParameters(
        *np.zeros((4, hid, hid + config.layer_input_width(layer))),
        *np.zeros((4, hid))) for layer in range(config.num_layers)]
    dense = DenseParameters(w_out=np.zeros((config.classes, hid)),
                            b_out=np.zeros(config.classes))
    return ModelParameters(config=config, layers=layers, dense=dense)


def init_parameters(config: ModelConfig, seed: int = 0) -> ModelParameters:
    """Glorot-uniform weights, drawn in parameter_items order; zero biases
    except forget-gate biases at 1.0."""
    rng = np.random.default_rng(seed)
    model = zero_parameters(config)
    for _, arr in parameter_items(model):
        if arr.ndim == 2:
            limit = np.sqrt(6.0 / sum(arr.shape))
            arr[...] = rng.uniform(-limit, limit, size=arr.shape)
    for lp in model.layers:
        lp.b_f = 1.0
    return model


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
    model = zero_parameters(config)
    items = [arr for _, arr in parameter_items(model)]
    chunks = np.split(theta, np.cumsum([arr.size for arr in items])[:-1])
    for arr, chunk in zip(items, chunks):
        arr[...] = chunk.reshape(arr.shape)
    return model
