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
from .telemetry import DatasetSplit, SequenceSample
from .nn import (ForwardTrace, ModelParameters, forward_batch,
                 parameter_items, predict_class)

CE_FLOOR = 1e-12


class TrainingDivergedError(RuntimeError):
    """Non-finite loss encountered during training."""


@dataclass
class TrainingConfig:
    learning_rate: float = 0.001
    max_epochs: int = 90
    batch_size: int = 32
    patience: int = 10
    seed: int = 0
    clip_norm: float | None = 5.0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.max_epochs < 1 \
                or self.batch_size < 1 or self.patience < 1:
            raise ValueError("invalid training configuration")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, model: ModelParameters) -> "AdamState":
        return cls(
            m={name: np.zeros_like(arr) for name, arr in parameter_items(model)},
            v={name: np.zeros_like(arr) for name, arr in parameter_items(model)},
        )


@dataclass
class TrainingReport:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    stopping_epoch: int = 0
    best_epoch: int = 0

    def to_text(self) -> str:
        lines = ["epoch,train_loss,val_loss,val_accuracy"]
        for e, (tl, vl, va) in enumerate(
                zip(self.train_loss, self.val_loss, self.val_accuracy), start=1):
            lines.append(f"{e},{tl:.6f},{vl:.6f},{va:.6f}")
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
        din = lp.input_width
        z_all = trace.layer_z[layer_idx]
        gates_all = trace.layer_gates[layer_idx]
        c_all = trace.layer_c[layer_idx]

        if layer_idx < len(model.layers) - 1:
            # this layer's h fed the layer above through a dropout mask
            dh_seq = dh_seq * trace.dropout_masks[layer_idx]

        dw, db = np.zeros_like(lp.w), np.zeros_like(lp.b)
        dx_seq = np.zeros((steps, batch, din))

        dh_carry = np.zeros((batch, hid))
        dc_carry = np.zeros((batch, hid))
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

            # (4, B, H) gradient of the gate pre-activations
            da = np.stack([di * i * (1.0 - i), df * f * (1.0 - f),
                           dct * (1.0 - c_tilde ** 2), do * o * (1.0 - o)])
            dw += da.transpose(0, 2, 1) @ z_all[t]
            db += da.sum(axis=1)
            dz = (da @ lp.w).sum(axis=0)
            dh_carry = dz[:, :hid]
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
               train: bool = False,
               dropout_masks: list[np.ndarray] | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Mean cross-entropy over a (B, T, F) batch."""
    probs, _ = forward_batch(model, inputs, train=train, rng=rng,
                             dropout_masks=dropout_masks)
    return cross_entropy(probs, targets) / len(inputs)


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
    train = dropout_masks is not None

    losses = []
    for delta in (eps, -eps):
        probe = theta.copy()
        probe[index] += delta
        probed = nn.unflatten_parameters(model.config, probe)
        losses.append(batch_loss(probed, inputs, tgt, train=train,
                                 dropout_masks=dropout_masks))
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
              state: AdamState, lr: float = 0.001, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8
              ) -> tuple[ModelParameters, AdamState]:
    """Standard bias-corrected Adam update; parameters updated in place."""
    state.t += 1
    t = state.t
    for name, param in parameter_items(model):
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient in {name}")
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g ** 2
        m_hat = state.m[name] / (1.0 - beta1 ** t)
        v_hat = state.v[name] / (1.0 - beta2 ** t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return model, state


def stack_samples(samples: list[SequenceSample]) -> tuple[np.ndarray, np.ndarray]:
    inputs = np.stack([s.inputs for s in samples])
    targets = np.stack([s.target for s in samples])
    return inputs, targets


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


def evaluate(model: ModelParameters, samples: list[SequenceSample]
             ) -> EvaluationResult:
    """Inference-mode accuracy, per-class precision/recall, confusion matrix."""
    if not samples:
        raise ValueError("cannot evaluate on an empty sample set")
    inputs, targets = stack_samples(samples)
    probs, _ = forward_batch(model, inputs, train=False)
    classes = model.config.classes
    confusion = np.zeros((classes, classes), dtype=int)
    for p, y in zip(probs, targets):
        confusion[int(np.argmax(y)), int(predict_class(p))] += 1
    correct = int(np.trace(confusion))
    col = confusion.sum(axis=0)
    row = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        precision = np.where(col > 0, np.diag(confusion) / np.maximum(col, 1), 0.0)
        recall = np.where(row > 0, np.diag(confusion) / np.maximum(row, 1), 0.0)
    return EvaluationResult(accuracy=correct / len(samples),
                            confusion=confusion,
                            precision=precision, recall=recall)


def train(model: ModelParameters, splits: DatasetSplit, config: TrainingConfig
          ) -> tuple[ModelParameters, TrainingReport]:
    """Mini-batch Adam training with per-epoch validation and early stopping
    on validation loss; returns the best-validation checkpoint."""
    if not splits.train or not splits.validation:
        raise ValueError("train and validation splits must be non-empty")
    rng = np.random.default_rng(config.seed)
    train_inputs, train_targets = stack_samples(splits.train)
    val_inputs, val_targets = stack_samples(splits.validation)

    state = AdamState.zeros_like(model)
    report = TrainingReport()
    best_loss = math.inf
    best_params = model.copy()
    epochs_since_best = 0

    n = len(splits.train)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
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
            if config.clip_norm is not None:
                clip_gradients(grads, config.clip_norm)
            adam_step(model, grads, state, lr=config.learning_rate)

        val_loss = batch_loss(model, val_inputs, val_targets, train=False)
        if not math.isfinite(val_loss):
            raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
        val_acc = evaluate(model, splits.validation).accuracy
        report.train_loss.append(epoch_loss / n)
        report.val_loss.append(val_loss)
        report.val_accuracy.append(val_acc)
        report.stopping_epoch = epoch

        if val_loss < best_loss:
            best_loss = val_loss
            best_params = model.copy()
            report.best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    return best_params, report
