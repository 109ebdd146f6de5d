"""Loss, gradients (vs finite differences), Adam, dropout, training loop."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from congestionlab import nn, telemetry, training
from congestionlab.nn import (ModelConfig, flatten_parameters, forward,
                              forward_batch, init_parameters,
                              parameter_count, parameter_items,
                              unflatten_parameters)
from congestionlab.telemetry import (FEATURE_COUNT, WINDOW, CongestionLevel,
                                     DatasetSplit, SampleSet)
from congestionlab.training import (MIN_DELTA, AdamState, EvaluationResult,
                                    TrainingConfig, TrainingDivergedError,
                                    adam_step, backward,
                                    batch_loss, clip_gradients,
                                    cross_entropy, evaluate,
                                    finite_difference_gradient,
                                    flatten_gradients, train)


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        assert cross_entropy([0.0, 1.0, 0.0], [0, 1, 0]) == 0.0

    def test_uniform_prediction_ln3(self):
        for target in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
            assert cross_entropy([1 / 3] * 3, target) == pytest.approx(
                math.log(3.0), abs=1e-12)
            assert cross_entropy([1 / 3] * 3, target) == pytest.approx(
                1.098612, abs=1e-6)

    def test_half_prediction_ln2(self):
        assert cross_entropy([0.5, 0.25, 0.25], [1, 0, 0]) == pytest.approx(
            math.log(2.0), abs=1e-12)
        assert cross_entropy([0.5, 0.25, 0.25], [1, 0, 0]) == pytest.approx(
            0.693147, abs=1e-6)

    def test_zero_probability_floored(self):
        loss = cross_entropy([0.0, 0.5, 0.5], [1, 0, 0])
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12))


def dropout_model(rate, hidden_units=4):
    return init_parameters(ModelConfig(hidden_units=hidden_units, num_layers=2,
                                       features=3, dropout_rate=rate), seed=0)


class TestDropout:
    """Inter-layer dropout as forward_batch applies it."""

    x = np.random.default_rng(0).random((6, 5, 3))

    def test_inference_identity(self):
        model = dropout_model(0.2)
        probs, trace = forward_batch(model, self.x, train=False)
        assert trace.dropout_masks == []
        without = dataclasses.replace(model, config=dataclasses.replace(
            model.config, dropout_rate=0.0))
        np.testing.assert_array_equal(
            probs, forward_batch(without, self.x, train=False)[0])

    def test_rate_zero_identity(self):
        model = dropout_model(0.0)
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        probs, trace = forward_batch(model, self.x, train=True, rng=rng)
        assert trace.dropout_masks == []
        assert rng.bit_generator.state == before
        np.testing.assert_array_equal(
            probs, forward_batch(model, self.x, train=False)[0])

    def test_zeroed_fraction_concentrates(self):
        x = np.random.default_rng(2).random((100, 20, 3))
        _, trace = forward_batch(dropout_model(0.2, hidden_units=50), x,
                                 train=True, rng=np.random.default_rng(3))
        (mask,) = trace.dropout_masks
        assert mask.shape == (20, 100, 50)
        assert abs(float((mask == 0.0).mean()) - 0.2) < 0.01

    def test_survivors_scaled(self):
        model = dropout_model(0.2)
        _, trace = forward_batch(model, self.x, train=True,
                                 rng=np.random.default_rng(4))
        (mask,) = trace.dropout_masks
        np.testing.assert_allclose(mask[mask > 0], 1.0 / 0.8)
        # layer 1 reads layer 0's hidden states through the mask
        hid = model.config.hidden_units
        np.testing.assert_array_equal(trace.layer_z[1][..., hid:],
                                      trace.layer_h[0][1:] * mask)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(dropout_rate=1.0)

    def test_train_mode_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            forward_batch(dropout_model(0.2), self.x, train=True)


def reference_backward(model, trace, targets):
    """Reference for backward: every layer, the bottom one included, takes
    the full-width product da @ w and keeps its input gradient."""
    probs = trace.probabilities
    batch, steps = trace.inputs.shape[0], trace.inputs.shape[1]
    hid = model.config.hidden_units
    grads = {}
    dlogits = (probs - targets) / batch
    grads["dense.w_out"] = dlogits.T @ trace.final_hidden
    grads["dense.b_out"] = dlogits.sum(axis=0)
    dh_seq = np.zeros((steps, batch, hid))
    dh_seq[-1] = dlogits @ model.dense.w_out
    for layer_idx in range(len(model.layers) - 1, -1, -1):
        lp = model.layers[layer_idx]
        z_all = trace.layer_z[layer_idx]
        gates_all = trace.layer_gates[layer_idx]
        c_all = trace.layer_c[layer_idx]
        if layer_idx < len(trace.dropout_masks):
            dh_seq = dh_seq * trace.dropout_masks[layer_idx]
        dw, db = np.zeros_like(lp.w), np.zeros_like(lp.b)
        dx_seq = np.zeros((steps, batch, lp.input_width))
        dh_carry = np.zeros((batch, hid))
        dc_carry = np.zeros((batch, hid))
        da = np.empty((4, batch, hid))
        for t in range(steps - 1, -1, -1):
            dh = dh_seq[t] + dh_carry
            i, f, c_tilde, o = gates_all[t]
            tanh_c = np.tanh(c_all[t + 1])
            do = dh * tanh_c
            dc = dc_carry + dh * o * (1.0 - tanh_c ** 2)
            np.multiply(dc * c_tilde * i, 1.0 - i, out=da[0])
            np.multiply(dc * c_all[t] * f, 1.0 - f, out=da[1])
            np.multiply(dc * i, 1.0 - c_tilde ** 2, out=da[2])
            np.multiply(do * o, 1.0 - o, out=da[3])
            dw += da.transpose(0, 2, 1) @ z_all[t]
            db += da.sum(axis=1)
            dz = (da @ lp.w).sum(axis=0)
            dh_carry = dz[:, :hid]
            dx_seq[t] = dz[:, hid:]
            dc_carry = dc * f
        for k, g in enumerate(nn.GATES):
            grads[f"layer{layer_idx}.w_{g}"] = dw[k]
            grads[f"layer{layer_idx}.b_{g}"] = db[k]
        dh_seq = dx_seq
    return grads


class TestBackward:
    def test_dense_bias_gradient_at_zero_parameters(self):
        cfg = ModelConfig(hidden_units=3, num_layers=2, features=4,
                          dropout_rate=0.0)
        model = unflatten_parameters(cfg, np.zeros(parameter_count(cfg)))
        x = np.random.default_rng(0).random((1, 5, 4))
        target = np.array([[1.0, 0.0, 0.0]])
        _, trace = forward_batch(model, x, train=False)
        grads = backward(model, trace, target)
        np.testing.assert_allclose(grads["dense.b_out"],
                                   np.array([1 / 3, 1 / 3, 1 / 3]) - target[0],
                                   atol=1e-12)

    @pytest.mark.parametrize("hidden, features",
                             [(64, 5), (64, 64), (8, 5), (4, 5)])
    def test_gradient_bits_match_full_width_reference(self, hidden, features):
        rng = np.random.default_rng(hidden + features)
        cfg = ModelConfig(hidden_units=hidden, num_layers=2,
                          features=features, dropout_rate=0.2)
        model = init_parameters(cfg, seed=features)
        for batch in (1, 2, 3, 7, 32, 33):
            x = rng.normal(size=(batch, 10, features))
            targets = np.eye(3)[rng.integers(0, 3, size=batch)]
            _, trace = forward_batch(model, x, train=True, rng=rng)
            got = backward(model, trace, targets)
            want = reference_backward(model, trace, targets)
            assert got.keys() == want.keys()
            assert all(got[k].tobytes() == want[k].tobytes() for k in want), batch

    @pytest.mark.parametrize("frozen", [False, True])
    def test_three_layer_gradient_bits_match_full_width_reference(self,
                                                                  frozen):
        rng = np.random.default_rng(3 + frozen)
        cfg = ModelConfig(hidden_units=8, num_layers=3, features=5,
                          dropout_rate=0.3)
        model = init_parameters(cfg, seed=7)
        for batch in (1, 3, 33):
            x = rng.normal(size=(batch, 10, 5))
            targets = np.eye(3)[rng.integers(0, 3, size=batch)]
            masks = ([(rng.random((10, batch, 8)) >= 0.3) / 0.7
                      for _ in range(2)] if frozen else None)
            _, trace = forward_batch(model, x, train=True, rng=rng,
                                     dropout_masks=masks)
            # each boundary feeds the layer above through its own mask
            assert len(trace.dropout_masks) == 2
            for k, mask in enumerate(trace.dropout_masks):
                assert (trace.layer_z[k + 1][..., 8:].tobytes()
                        == (trace.layer_h[k][1:] * mask).tobytes()), k
            got = backward(model, trace, targets)
            want = reference_backward(model, trace, targets)
            assert got.keys() == want.keys()
            assert all(got[k].tobytes() == want[k].tobytes() for k in want), batch

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        cfg = ModelConfig(hidden_units=3, num_layers=2, features=4,
                          dropout_rate=0.0)
        model = init_parameters(cfg, seed=13)
        x = rng.normal(size=(4, 4))
        target = np.array([0.0, 1.0, 0.0])
        _, trace = forward_batch(model, x[None], train=False)
        grads = backward(model, trace, target[None])
        flat = flatten_gradients(model, grads)
        coords = rng.choice(flat.size, size=60, replace=False)
        for idx in coords:
            numeric = finite_difference_gradient(model, x, target, int(idx))
            denom = max(abs(numeric), abs(flat[idx]), 1e-8)
            assert abs(numeric - flat[idx]) / denom < 1e-4

    def test_gradient_with_frozen_dropout_masks(self):
        rng = np.random.default_rng(11)
        cfg = ModelConfig(hidden_units=3, num_layers=2, features=3,
                          dropout_rate=0.4)
        model = init_parameters(cfg, seed=5)
        x = rng.normal(size=(3, 3))
        target = np.array([0.0, 0.0, 1.0])
        _, trace = forward_batch(model, x[None], train=True,
                                 rng=np.random.default_rng(2))
        grads = backward(model, trace, target[None])
        flat = flatten_gradients(model, grads)
        coords = rng.choice(flat.size, size=40, replace=False)
        for idx in coords:
            numeric = finite_difference_gradient(
                model, x, target, int(idx),
                dropout_masks=trace.dropout_masks)
            denom = max(abs(numeric), abs(flat[idx]), 1e-8)
            assert abs(numeric - flat[idx]) / denom < 1e-4

    def test_fully_masked_layer_blocks_gradient(self):
        cfg = ModelConfig(hidden_units=2, num_layers=2, features=2,
                          dropout_rate=0.5)
        model = init_parameters(cfg, seed=1)
        x = np.random.default_rng(0).random((3, 2))
        masks = [np.zeros((3, 1, 2))]  # layer-0 output entirely dropped
        _, trace = forward_batch(model, x[None], train=True,
                                 dropout_masks=masks)
        grads = backward(model, trace, np.array([[1.0, 0.0, 0.0]]))
        # every layer-0 parameter sits behind the zero mask
        for gate in ("i", "f", "c", "o"):
            np.testing.assert_array_equal(grads[f"layer0.w_{gate}"], 0.0)
            np.testing.assert_array_equal(grads[f"layer0.b_{gate}"], 0.0)
        # and the numeric probe through a blocked coordinate is ~0
        numeric = finite_difference_gradient(model, x,
                                             np.array([1.0, 0.0, 0.0]), 0,
                                             dropout_masks=masks)
        assert abs(numeric) < 1e-7

    def test_batch_gradient_is_mean_of_sample_gradients(self):
        cfg = ModelConfig(hidden_units=3, num_layers=1, features=2,
                          dropout_rate=0.0)
        model = init_parameters(cfg, seed=3)
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(4, 5, 2))
        ys = np.eye(3)[rng.integers(0, 3, size=4)]
        _, trace = forward_batch(model, xs, train=False)
        batch_grads = flatten_gradients(model, backward(model, trace, ys))
        per_sample = np.zeros_like(batch_grads)
        for x, y in zip(xs, ys):
            _, tr = forward_batch(model, x[None], train=False)
            per_sample += flatten_gradients(model, backward(model, tr,
                                                            y[None]))
        np.testing.assert_allclose(batch_grads, per_sample / 4, atol=1e-12)

    def test_linear_toy_matches_analytic_slope(self):
        # dense bias on a fixed hidden state: d loss / d b_k = p_k - y_k,
        # locally smooth, so a central difference is accurate to ~eps^2
        cfg = ModelConfig(hidden_units=2, num_layers=1, features=1,
                          dropout_rate=0.0)
        model = init_parameters(cfg, seed=8)
        x = np.array([[0.3]])
        y = np.array([1.0, 0.0, 0.0])
        probs, trace = forward(model, x, train=False)
        grads = backward(model, trace, y)
        analytic = probs - y
        theta_names = [name for name, _ in parameter_items(model)]
        offset = 0
        for name, arr in parameter_items(model):
            if name == "dense.b_out":
                break
            offset += arr.size
        for k in range(3):
            numeric = finite_difference_gradient(model, x, y, offset + k)
            assert abs(numeric - analytic[k]) < 1e-8
            assert abs(grads["dense.b_out"][k] - analytic[k]) < 1e-12
        assert "dense.b_out" in theta_names


class TestClipAndAdam:
    def test_clip_scales_to_max_norm(self):
        grads = {"a": np.array([3.0, 4.0])}
        pre = clip_gradients(grads, 1.0)
        assert pre == pytest.approx(5.0)
        assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)

    def test_clip_leaves_small_gradients_alone(self):
        grads = {"a": np.array([0.3, 0.4])}
        clip_gradients(grads, 5.0)
        np.testing.assert_array_equal(grads["a"], [0.3, 0.4])

    def scalar_model(self):
        cfg = ModelConfig(hidden_units=1, num_layers=1, features=1,
                          dropout_rate=0.0)
        return unflatten_parameters(cfg, np.zeros(parameter_count(cfg)))

    def test_first_step_delta(self):
        model = self.scalar_model()
        state = AdamState.zeros_like(model)
        before = flatten_parameters(model).copy()
        grads = {name: np.zeros_like(arr)
                 for name, arr in parameter_items(model)}
        grads["dense.b_out"] = np.array([1.0, 0.0, 0.0])
        adam_step(model, grads, state, lr=0.001)
        delta = flatten_parameters(model) - before
        moved = delta[delta != 0.0]
        assert moved.size == 1
        # hand-evaluated bias-corrected first step: -lr/(1 + eps-hat)
        assert moved[0] == pytest.approx(-0.000999999990000001, abs=1e-15)

    def test_zero_gradient_fixed_point(self):
        model = self.scalar_model()
        state = AdamState.zeros_like(model)
        before = flatten_parameters(model).copy()
        grads = {name: np.zeros_like(arr)
                 for name, arr in parameter_items(model)}
        adam_step(model, grads, state, lr=0.001)
        np.testing.assert_array_equal(flatten_parameters(model), before)

    def test_first_step_magnitude_scale_free(self):
        for g in (1e-3, 1.0, 1e3):
            model = self.scalar_model()
            state = AdamState.zeros_like(model)
            grads = {name: np.zeros_like(arr)
                     for name, arr in parameter_items(model)}
            grads["dense.b_out"] = np.array([g, 0.0, 0.0])
            adam_step(model, grads, state, lr=0.001)
            delta = flatten_parameters(model)
            # eps in the denominator perturbs the step by ~eps/|g|
            assert abs(delta).max() == pytest.approx(0.001, rel=2e-5)

    @staticmethod
    def random_grads(model, rng):
        return {name: rng.normal(scale=0.1, size=arr.shape)
                for name, arr in parameter_items(model)}

    def test_non_finite_gradient_raises(self):
        model = init_parameters(ModelConfig(hidden_units=4), seed=0)
        rng = np.random.default_rng(0)
        state = AdamState.zeros_like(model)
        adam_step(model, self.random_grads(model, rng), state)
        before = flatten_parameters(model)
        m, v = state.m.copy(), state.v.copy()
        grads = self.random_grads(model, rng)
        grads["dense.b_out"][1] = np.nan
        with pytest.raises(TrainingDivergedError, match="dense.b_out"):
            adam_step(model, grads, state)
        # nothing moved: no tensor before the bad one took its step
        np.testing.assert_array_equal(flatten_parameters(model), before)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
        assert state.t == 1

    def test_adam_bits_match_per_tensor_reference(self):
        lr = 0.001
        beta1, beta2 = training.ADAM_BETA1, training.ADAM_BETA2
        eps = training.ADAM_EPS
        model = init_parameters(ModelConfig(), seed=0)
        reference = model.copy()
        ref_m = {name: np.zeros_like(arr)
                 for name, arr in parameter_items(reference)}
        ref_v = {name: np.zeros_like(m) for name, m in ref_m.items()}
        state = AdamState.zeros_like(model)
        rng = np.random.default_rng(1)
        for t in range(1, 4):
            grads = self.random_grads(model, rng)
            adam_step(model, grads, state, lr)
            for name, param in parameter_items(reference):
                g = grads[name]
                ref_m[name] = beta1 * ref_m[name] + (1.0 - beta1) * g
                ref_v[name] = beta2 * ref_v[name] + (1.0 - beta2) * g ** 2
                m_hat = ref_m[name] / (1.0 - beta1 ** t)
                v_hat = ref_v[name] / (1.0 - beta2 ** t)
                param -= lr * m_hat / (np.sqrt(v_hat) + eps)
            assert state.t == t
            assert np.array_equal(flatten_parameters(model),
                                  flatten_parameters(reference))
            assert np.array_equal(state.m, flatten_gradients(model, ref_m))
            assert np.array_equal(state.v, flatten_gradients(model, ref_v))


def toy_split(n=20, seed=0):
    """Separable toy dataset: class = which feature carries the big value."""
    rng = np.random.default_rng(seed)
    inputs, classes = [], []
    for _ in range(n):
        classes.append(int(rng.integers(0, 3)))
        inputs.append(rng.normal(scale=0.05, size=(4, 3)))
        inputs[-1][:, classes[-1]] += 1.0
    inputs, targets = np.stack(inputs), np.eye(3)[classes]
    k = max(2, n // 5)
    held_out = SampleSet(inputs[-k:], targets[-k:])
    return DatasetSplit(train=SampleSet(inputs[:-k], targets[:-k]),
                        validation=held_out, test=held_out)


class TestTrainLoop:
    def small_config(self):
        return ModelConfig(hidden_units=6, num_layers=2, features=3,
                           dropout_rate=0.0)

    def test_loss_decreases_on_separable_toy(self):
        split = toy_split(20)
        model = init_parameters(self.small_config(), seed=2)
        cfg = TrainingConfig(max_epochs=40, batch_size=16, patience=40, seed=3)
        _, report = train(model, split, cfg)
        assert report.train_loss[-1] < report.train_loss[0]

    def test_validation_accuracy_high_on_toy(self):
        split = toy_split(60)
        model = init_parameters(self.small_config(), seed=2)
        cfg = TrainingConfig(max_epochs=60, batch_size=16, patience=60, seed=3)
        best, report = train(model, split, cfg)
        assert evaluate(best, split.validation).accuracy > 0.9

    def test_patience_one_worsening_val_stops_after_epoch_2(self):
        # empty-ish training set whose single batch pushes val loss up:
        # craft by using a validation target opposite to the training one
        train_s = SampleSet(np.ones((4, 2, 3)), np.array([[1.0, 0.0, 0.0]] * 4))
        val_s = SampleSet(np.ones((1, 2, 3)), np.array([[0.0, 0.0, 1.0]]))
        split = DatasetSplit(train=train_s, validation=val_s, test=val_s)
        model = init_parameters(self.small_config(), seed=0)
        cfg = TrainingConfig(max_epochs=50, batch_size=4, patience=1, seed=0)
        _, report = train(model, split, cfg)
        assert report.stopping_epoch == 2

    def test_stops_once_gains_fall_below_min_delta(self):
        # at lr 0.1 the toy fits in a few epochs; the validation loss then
        # keeps falling, by less than MIN_DELTA an epoch
        split = toy_split(40)
        model = init_parameters(self.small_config(), seed=2)
        cfg = TrainingConfig(learning_rate=0.1, max_epochs=60, batch_size=16,
                             patience=3, seed=3)
        _, report = train(model, split, cfg)
        losses = report.val_loss
        # every epoch sets a new best, so a strict `<` alone never stops
        assert all(b < a for a, b in zip(losses, losses[1:]))
        # the first epoch that closes `patience` gains in a row of at most
        # MIN_DELTA each
        expected = next(
            epoch for epoch in range(cfg.patience + 1, cfg.max_epochs + 1)
            if all(losses[k - 2] - losses[k - 1] <= MIN_DELTA
                   for k in range(epoch - cfg.patience + 1, epoch + 1)))
        assert report.stopping_epoch == expected < cfg.max_epochs
        assert report.best_epoch == expected
        # the text the train command writes to training_report.txt
        assert report.to_text().endswith(
            f"stopping_epoch {expected}\nbest_epoch {expected}\n")

    def test_same_seed_identical_report(self):
        split = toy_split(20)
        cfg = TrainingConfig(max_epochs=5, batch_size=8, patience=5, seed=9)
        reports = []
        for _ in range(2):
            model = init_parameters(self.small_config(), seed=4)
            _, report = train(model, split, cfg)
            reports.append(report)
        assert reports[0].train_loss == reports[1].train_loss
        assert reports[0].val_loss == reports[1].val_loss
        assert reports[0].to_text() == reports[1].to_text()

    def test_best_checkpoint_restored(self):
        split = toy_split(20)
        model = init_parameters(self.small_config(), seed=2)
        cfg = TrainingConfig(max_epochs=30, batch_size=8, patience=30, seed=3)
        best, report = train(model, split, cfg)
        xs, ys = training.stack_samples(split.validation)
        assert batch_loss(best, xs, ys)[0] == pytest.approx(
            report.val_loss[report.best_epoch - 1], abs=1e-12)

    def test_one_validation_forward_per_epoch(self, monkeypatch):
        split = toy_split(20)
        val_inputs, _ = training.stack_samples(split.validation)
        predicted, traced = [], []

        def counting(calls, fn):
            def wrapper(model, inputs, *args, **kwargs):
                calls.append(np.array_equal(inputs, val_inputs))
                return fn(model, inputs, *args, **kwargs)
            return wrapper

        # validation runs the trace-free predict, never forward_batch
        monkeypatch.setattr(training, "predict", counting(predicted, nn.predict))
        monkeypatch.setattr(training, "forward_batch",
                            counting(traced, forward_batch))
        model = init_parameters(self.small_config(), seed=2)
        cfg = TrainingConfig(max_epochs=3, batch_size=8, patience=3, seed=3)
        _, report = train(model, split, cfg)
        assert report.stopping_epoch == cfg.max_epochs
        assert sum(predicted) == cfg.max_epochs
        assert traced and not any(traced)

    def test_report_records_max_pre_clip_norm_per_epoch(self, monkeypatch):
        split = toy_split(20)
        norms = []

        def recording(grads, max_norm):
            norms.append(clip_gradients(grads, max_norm))
            return norms[-1]

        monkeypatch.setattr(training, "clip_gradients", recording)
        model = init_parameters(self.small_config(), seed=2)
        cfg = TrainingConfig(max_epochs=3, batch_size=8, patience=3, seed=3)
        _, report = train(model, split, cfg)
        per_epoch = len(norms) // cfg.max_epochs
        assert len(norms) == per_epoch * cfg.max_epochs == 6
        assert report.grad_norm_max == [
            max(norms[k:k + per_epoch]) for k in range(0, len(norms), per_epoch)]
        lines = report.to_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_accuracy,grad_norm_max"
        assert [float(line.split(",")[4]) for line in lines[1:4]] \
            == pytest.approx(report.grad_norm_max, abs=1e-6)

    def test_empty_split_rejected(self):
        model = init_parameters(self.small_config(), seed=0)
        with pytest.raises(ValueError):
            empty = SampleSet(np.empty((0, 2, 3)), np.empty((0, 3)))
            train(model, DatasetSplit(train=empty, validation=empty,
                                      test=empty), TrainingConfig())


class TestEvaluate:
    def test_perfect_predictions(self):
        split = toy_split(30)
        model = init_parameters(ModelConfig(hidden_units=6, num_layers=2,
                                            features=3, dropout_rate=0.0),
                                seed=2)
        cfg = TrainingConfig(max_epochs=80, batch_size=16, patience=80, seed=3)
        best, _ = train(model, split, cfg)
        result = evaluate(best, split.train)
        if result.accuracy == 1.0:
            assert np.all(result.confusion == np.diag(np.diag(
                result.confusion)))

    def test_zero_model_predicts_high_everywhere(self):
        cfg = ModelConfig(hidden_units=2, num_layers=1, features=3,
                          dropout_rate=0.0)
        model = unflatten_parameters(cfg, np.zeros(parameter_count(cfg)))
        split = toy_split(30)
        result = evaluate(model, split.train)
        high_freq = np.mean([np.argmax(s.target) == 2 for s in split.train])
        assert result.accuracy == pytest.approx(high_freq)
        assert result.confusion[:, :2].sum() == 0
        # low and medium are never predicted: precision and recall read 0
        np.testing.assert_array_equal(result.precision[:2], 0.0)
        np.testing.assert_array_equal(result.recall[:2], 0.0)

    def test_confusion_sums_to_sample_count(self):
        model = init_parameters(ModelConfig(hidden_units=4, num_layers=1,
                                            features=3), seed=0)
        split = toy_split(25)
        result = evaluate(model, split.train)
        assert result.confusion.sum() == len(split.train)

    def test_empty_samples_rejected(self):
        model = init_parameters(ModelConfig(hidden_units=2, features=3),
                                seed=0)
        with pytest.raises(ValueError):
            evaluate(model, SampleSet(np.empty((0, 2, 3)), np.empty((0, 3))))


def peak(fn) -> int:
    """Peak bytes traced while fn runs.  numpy reports its buffers to
    tracemalloc, and their sizes depend only on the shapes, so the peaks
    that the tests below compare are exact."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInferenceMemory:
    def test_validation_loss_allocates_at_most_half_a_traced_forward(self):
        model = init_parameters(ModelConfig(), seed=0)
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(510, WINDOW, FEATURE_COUNT))
        targets = np.eye(len(CongestionLevel))[rng.integers(0, 3, size=510)]
        traced = peak(lambda: forward_batch(model, inputs))
        untraced = peak(lambda: batch_loss(model, inputs, targets))
        assert untraced <= traced / 2

    def test_predict_peak_does_not_grow_with_window(self):
        # predict holds one step per layer, so a window four times as long
        # adds less than one step's (B, H) hidden state to the peak (only
        # Python's own bookkeeping, under 1 KiB); a kept h sequence would
        # add 30 of them
        cfg = ModelConfig()
        model = init_parameters(cfg, seed=0)
        rng = np.random.default_rng(1)
        short, long = (rng.normal(size=(510, steps, FEATURE_COUNT))
                       for steps in (WINDOW, 4 * WINDOW))
        growth = (peak(lambda: nn.predict(model, long))
                  - peak(lambda: nn.predict(model, short)))
        assert growth < 510 * cfg.hidden_units * 8

    def test_trace_stores_each_hidden_state_once(self):
        cfg = ModelConfig(hidden_units=6, num_layers=3, features=4)
        model = init_parameters(cfg, seed=2)
        x = np.random.default_rng(2).normal(size=(5, 7, 4))
        _, trace = forward_batch(model, x, train=True,
                                 rng=np.random.default_rng(3))
        for h, z in zip(trace.layer_h, trace.layer_z, strict=True):
            assert np.shares_memory(h, z)
            assert h[1:7].tobytes() == z[1:, :, :6].tobytes()


def normalized_split(series_count=10, length=510) -> DatasetSplit:
    """train_pipeline's split of series_count * (length - WINDOW) windows."""
    rng = np.random.default_rng(4)
    series_list = [[telemetry.TelemetryRecord(
        float(k + 1), float(rng.uniform(0, 200)), float(rng.uniform(0, 900)),
        0.1, float(rng.uniform(0, 1)), 20,
        CongestionLevel(int(rng.integers(0, 3)))) for k in range(length)]
        for _ in range(series_count)]
    raw = telemetry.split_dataset(telemetry.raw_windows(series_list))
    stats = telemetry.fit_normalization(
        raw.train.inputs.reshape(-1, FEATURE_COUNT))
    return DatasetSplit(*(telemetry.normalized(part, stats)
                          for part in (raw.train, raw.validation, raw.test)))


class TestDatasetMemory:
    def test_split_holds_little_beyond_its_arrays(self):
        # a SampleSet is two arrays; a SequenceSample, an input view and a
        # one-hot array per window would add some 340 bytes to its 424 bytes
        # of arrays
        tracemalloc.start()
        try:
            split = normalized_split()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        parts = (split.train, split.validation, split.test)
        assert len(split) == 5000
        assert held <= 1.1 * sum(part.inputs.nbytes + part.targets.nbytes
                                 for part in parts)

    def test_training_reads_the_train_inputs_in_place(self):
        # a second copy of the train inputs would add their nbytes to the
        # peak; at this model size, all else one epoch allocates (the
        # batches, their traces, validation's predict) is under half that
        split = normalized_split()
        model = init_parameters(ModelConfig(hidden_units=4), seed=0)
        traced = peak(lambda: train(model, split, TrainingConfig(max_epochs=1)))
        assert traced < split.train.inputs.nbytes / 2


def scored_as(probs, levels) -> EvaluationResult:
    """EvaluationResult.of for rows of `probs` whose true classes are `levels`."""
    return EvaluationResult.of(np.array(probs, dtype=float),
                               np.eye(len(CongestionLevel))[levels])


class TestEvaluationResult:
    def test_argmax_cases(self):
        result = scored_as([[0.1, 0.2, 0.7], [0.6, 0.3, 0.1]],
                           [CongestionLevel.HIGH, CongestionLevel.LOW])
        assert result.accuracy == 1.0

    def test_tie_breaks_toward_higher_level(self):
        result = scored_as([[1 / 3, 1 / 3, 1 / 3], [0.4, 0.4, 0.2]],
                           [CongestionLevel.HIGH, CongestionLevel.MEDIUM])
        assert result.accuracy == 1.0
