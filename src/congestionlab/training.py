"""Training: cross-entropy loss, BPTT gradients, Adam, early stopping.

Gradients are exact analytic derivatives of cross_entropy(forward(x)) taken
through the dense head, the inter-layer dropout masks, and every recurrent
step of both LSTM layers.  A central finite-difference oracle over the
flattened parameter vector is provided for verification; dropout masks are
frozen across the two probe evaluations so both sides differentiate the same
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .telemetry import DatasetSplit, SampleSet, check_fields
from .nn import (ForwardTrace, ModelParameters, forward_batch, parameter_items,
                 predict)

CE_FLOOR = 1e-12
# Adam's moment decays and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# nats a validation loss must beat the best by to reset the patience count
MIN_DELTA = 1e-4


class TrainingDivergedError(RuntimeError):
    """Non-finite loss encountered during training."""


@dataclass
class TrainingConfig:
    learning_rate: float = 0.001
    max_epochs: int = 90
    batch_size: int = 32
    patience: int = 10
    seed: int = 0
    # the global L2 bound on each step's gradient; unannotated, so a class
    # constant that no config sets
    clip_norm = 5.0

    def __post_init__(self):
        check_fields(self, ValueError, non_negative=("seed",), positive=(
            "learning_rate", "max_epochs", "batch_size", "patience"))


@dataclass
class AdamState:
    """First and second moments as flat vectors in parameter_items order."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, model: ModelParameters) -> "AdamState":
        size = nn.parameter_count(model.config)
        return cls(m=np.zeros(size), v=np.zeros(size))


@dataclass
class TrainingReport:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    grad_norm_max: list[float] = field(default_factory=list)  # pre-clip
    best_epoch: int = 0

    @property
    def stopping_epoch(self) -> int:
        return len(self.train_loss)

    def to_text(self) -> str:
        lines = ["epoch,train_loss,val_loss,val_accuracy,grad_norm_max"]
        for e, (tl, vl, va, gn) in enumerate(
                zip(self.train_loss, self.val_loss, self.val_accuracy,
                    self.grad_norm_max), start=1):
            lines.append(f"{e},{tl:.6f},{vl:.6f},{va:.6f},{gn:.6f}")
        lines.append("")
        lines.append(f"stopping_epoch {self.stopping_epoch}")
        lines.append(f"best_epoch {self.best_epoch}")
        return "\n".join(lines) + "\n"


def cross_entropy(probabilities, target) -> float:
    """Categorical cross-entropy with a 1e-12 probability floor."""
    p = np.asarray(probabilities, dtype=float)
    y = np.asarray(target, dtype=float)
    return float(-(y * np.log(np.maximum(p, CE_FLOOR))).sum())


def backward(model: ModelParameters, trace: ForwardTrace,
             targets: np.ndarray) -> dict[str, np.ndarray]:
    """BPTT over a recorded forward trace; returns the gradient of the
    batch-mean cross-entropy for every parameter tensor, keyed as in
    nn.parameter_items."""
    cfg = model.config
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 1:
        targets = targets[None]
    probs = trace.probabilities
    if probs is None or probs.shape != targets.shape:
        raise ValueError("trace/targets mismatch")
    batch, steps = trace.inputs.shape[0], trace.inputs.shape[1]
    hid = cfg.hidden_units

    grads: dict[str, np.ndarray] = {}

    # dense softmax head; softmax+cross-entropy collapses to p - y
    dlogits = (probs - targets) / batch
    grads["dense.w_out"] = dlogits.T @ trace.final_hidden
    grads["dense.b_out"] = dlogits.sum(axis=0)

    # gradient w.r.t. each layer's output sequence, shaped (T, B, H)
    dh_seq = np.zeros((steps, batch, hid))
    dh_seq[-1] = dlogits @ model.dense.w_out

    for layer_idx in range(len(model.layers) - 1, -1, -1):
        lp = model.layers[layer_idx]
        z_all = trace.layer_z[layer_idx]
        gates_all = trace.layer_gates[layer_idx]
        c_all = trace.layer_c[layer_idx]

        if layer_idx < len(trace.dropout_masks):
            # this layer's h fed the layer above through a dropout mask
            dh_seq = dh_seq * trace.dropout_masks[layer_idx]

        dw, db = np.zeros_like(lp.w), np.zeros_like(lp.b)
        # nothing reads the bottom layer's input gradient: at layer 0 only
        # the recurrent columns of w are multiplied and no dx_seq is kept
        w_back = lp.w if layer_idx else lp.w[:, :, :hid]
        dx_seq = (np.empty((steps, batch, lp.input_width)) if layer_idx
                  else None)

        dh_carry = np.zeros((batch, hid))
        dc_carry = np.zeros((batch, hid))
        da = np.empty((4, batch, hid))  # gradient of the gate pre-activations
        for t in range(steps - 1, -1, -1):
            dh = dh_seq[t] + dh_carry
            i, f, c_tilde, o = gates_all[t]
            c, c_prev = c_all[t + 1], c_all[t]
            tanh_c = np.tanh(c)

            do = dh * tanh_c
            dc = dc_carry + dh * o * (1.0 - tanh_c ** 2)
            di = dc * c_tilde
            df = dc * c_prev
            dct = dc * i

            np.multiply(di * i, 1.0 - i, out=da[0])
            np.multiply(df * f, 1.0 - f, out=da[1])
            np.multiply(dct, 1.0 - c_tilde ** 2, out=da[2])
            np.multiply(do * o, 1.0 - o, out=da[3])
            dw += da.transpose(0, 2, 1) @ z_all[t]
            db += da.sum(axis=1)
            dz = (da @ w_back).sum(axis=0)
            dh_carry = dz[:, :hid]
            if layer_idx:
                dx_seq[t] = dz[:, hid:]
            dc_carry = dc * f

        for k, g in enumerate(nn.GATES):
            grads[f"layer{layer_idx}.w_{g}"] = dw[k]
            grads[f"layer{layer_idx}.b_{g}"] = db[k]
        dh_seq = dx_seq  # becomes the output gradient of the layer below

    return grads


def flatten_gradients(model: ModelParameters,
                      grads: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([grads[name].ravel()
                           for name, _ in parameter_items(model)])


def batch_loss(model: ModelParameters, inputs: np.ndarray, targets: np.ndarray,
               dropout_masks: list[np.ndarray] | None = None
               ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a (B, T, F) batch, and the probabilities.

    With `dropout_masks` it runs forward_batch in train mode through those
    masks; without, it runs predict, which keeps no trace."""
    if dropout_masks is None:
        probs = predict(model, inputs)
    else:
        probs, _ = forward_batch(model, inputs, train=True,
                                 dropout_masks=dropout_masks)
    return cross_entropy(probs, targets) / len(inputs), probs


def finite_difference_gradient(model: ModelParameters, sample_inputs: np.ndarray,
                               target: np.ndarray, index: int,
                               eps: float = 1e-5,
                               dropout_masks: list[np.ndarray] | None = None
                               ) -> float:
    """Central-difference probe of one flattened-parameter coordinate."""
    theta = nn.flatten_parameters(model)
    if not 0 <= index < theta.size:
        raise IndexError(f"coordinate {index} out of range")
    inputs = np.asarray(sample_inputs, dtype=float)[None]
    tgt = np.asarray(target, dtype=float)[None]

    losses = []
    for delta in (eps, -eps):
        probe = theta.copy()
        probe[index] += delta
        probed = nn.unflatten_parameters(model.config, probe)
        losses.append(batch_loss(probed, inputs, tgt, dropout_masks)[0])
    return (losses[0] - losses[1]) / (2.0 * eps)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so the global L2 norm is <= max_norm;
    returns the pre-clip norm."""
    total = math.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def adam_step(model: ModelParameters, grads: dict[str, np.ndarray],
              state: AdamState, lr: float = 0.001
              ) -> tuple[ModelParameters, AdamState]:
    """Standard bias-corrected Adam update; parameters updated in place.

    A non-finite gradient raises before the model or the state changes."""
    g = flatten_gradients(model, grads)
    if not np.isfinite(g).all():
        name = next(name for name, _ in parameter_items(model)
                    if not np.isfinite(grads[name]).all())
        raise TrainingDivergedError(f"non-finite gradient in {name}")
    state.t += 1
    t, m, v = state.t, state.m, state.v
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    # in place, each element gets the IEEE operations of
    # m = beta1 * m + (1 - beta1) * g, v = beta2 * v + (1 - beta2) * g ** 2,
    # step = lr * m_hat / (sqrt(v_hat) + eps); only commuted operands differ
    step = (1.0 - beta1) * g
    m *= beta1
    m += step
    g *= g
    g *= 1.0 - beta2
    v *= beta2
    v += g
    np.divide(m, 1.0 - beta1 ** t, out=step)
    step *= lr
    np.divide(v, 1.0 - beta2 ** t, out=g)
    np.sqrt(g, out=g)
    g += eps
    step /= g
    pos = 0
    for _, param in parameter_items(model):
        param -= step[pos:pos + param.size].reshape(param.shape)
        pos += param.size
    return model, state


def stack_samples(samples: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    return samples.inputs, samples.targets


@dataclass
class EvaluationResult:
    accuracy: float
    confusion: np.ndarray       # rows: true class, cols: predicted
    precision: np.ndarray       # per class; 0 where undefined
    recall: np.ndarray

    def __str__(self):
        return (f"accuracy {self.accuracy:.4f}\n"
                f"precision {np.array2string(self.precision, precision=4)}\n"
                f"recall {np.array2string(self.recall, precision=4)}\n"
                f"confusion\n{self.confusion}")

    @classmethod
    def of(cls, probs: np.ndarray, targets: np.ndarray) -> "EvaluationResult":
        """Score (N, C) class probabilities against one-hot targets; ties go
        to the higher class."""
        classes = probs.shape[1]
        # argmax of the reversed row: the last index among tied maxima
        predicted = classes - 1 - np.argmax(probs[:, ::-1], axis=1)
        confusion = np.bincount(np.argmax(targets, axis=1) * classes + predicted,
                                minlength=classes ** 2).reshape(classes, classes)
        diag = np.diag(confusion)  # 0 for a class never predicted or never true
        return cls(accuracy=int(diag.sum()) / len(probs), confusion=confusion,
                   precision=diag / np.maximum(confusion.sum(axis=0), 1),
                   recall=diag / np.maximum(confusion.sum(axis=1), 1))


def evaluate(model: ModelParameters, samples: SampleSet) -> EvaluationResult:
    """Inference-mode accuracy, per-class precision/recall, confusion matrix."""
    if not samples:
        raise ValueError("cannot evaluate on an empty sample set")
    return EvaluationResult.of(predict(model, samples.inputs), samples.targets)


def train(model: ModelParameters, splits: DatasetSplit, config: TrainingConfig
          ) -> tuple[ModelParameters, TrainingReport]:
    """Mini-batch Adam training with per-epoch validation and early stopping
    on validation loss; returns the best-validation checkpoint.

    Patience runs out after `config.patience` epochs in a row that do not
    beat the best validation loss by more than MIN_DELTA.  Once the
    classifier fits, the loss keeps falling geometrically by far less than
    that, and without the floor each tiny gain would reset the count and
    train to `max_epochs` for no measurable change.  The checkpoint
    returned is still the lowest loss seen, however small its margin."""
    if not splits.train or not splits.validation:
        raise ValueError("train and validation splits must be non-empty")
    rng = np.random.default_rng(config.seed)
    train_inputs, train_targets = splits.train.inputs, splits.train.targets
    val_inputs, val_targets = splits.validation.inputs, splits.validation.targets

    state = AdamState.zeros_like(model)
    report = TrainingReport()
    best_loss = math.inf
    best_params = model.copy()
    epochs_since_best = 0

    n = len(splits.train)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        epoch_loss = grad_norm_max = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = train_inputs[idx], train_targets[idx]
            probs, trace = forward_batch(model, xb, train=True, rng=rng)
            loss = cross_entropy(probs, yb) / len(idx)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite training loss at epoch {epoch}")
            epoch_loss += loss * len(idx)
            grads = backward(model, trace, yb)
            grad_norm_max = max(grad_norm_max,
                                clip_gradients(grads, config.clip_norm))
            adam_step(model, grads, state, lr=config.learning_rate)

        val_loss, val_probs = batch_loss(model, val_inputs, val_targets)
        if not math.isfinite(val_loss):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
        report.train_loss.append(epoch_loss / n)
        report.val_loss.append(val_loss)
        report.grad_norm_max.append(grad_norm_max)
        report.val_accuracy.append(
            EvaluationResult.of(val_probs, val_targets).accuracy)

        if val_loss < best_loss - MIN_DELTA:
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        if val_loss < best_loss:
            best_loss = val_loss
            best_params = model.copy()
            report.best_epoch = epoch
        if epochs_since_best >= config.patience:
            break

    return best_params, report
