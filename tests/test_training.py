"""Loss, gradients (vs finite differences), Adam, dropout, training loop."""

import math

import numpy as np
import pytest

from congestionlab import nn, training
from congestionlab.nn import (ModelConfig, apply_dropout, flatten_parameters,
                              forward, forward_batch, init_parameters,
                              parameter_count, parameter_items,
                              unflatten_parameters)
from congestionlab.telemetry import DatasetSplit, SequenceSample
from congestionlab.training import (AdamState, TrainingConfig,
                                    TrainingDivergedError, adam_step, backward,
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


class TestDropout:
    def test_inference_identity(self):
        h = np.random.default_rng(0).random((7, 4))
        out, mask = apply_dropout(h, rate=0.2, train=False)
        np.testing.assert_array_equal(out, h)
        np.testing.assert_array_equal(mask, 1.0)

    def test_rate_zero_identity(self):
        h = np.random.default_rng(0).random((7, 4))
        out, mask = apply_dropout(h, rate=0.0, train=True)
        np.testing.assert_array_equal(out, h)
        np.testing.assert_array_equal(mask, 1.0)

    def test_zeroed_fraction_concentrates(self):
        h = np.ones(100_000)
        _, mask = apply_dropout(h, rate=0.2, rng=np.random.default_rng(3))
        zeroed = float((mask == 0.0).mean())
        assert abs(zeroed - 0.2) < 0.01

    def test_survivors_scaled(self):
        h = np.ones(1000)
        out, mask = apply_dropout(h, rate=0.2, rng=np.random.default_rng(4))
        kept = out[mask > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.8)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            apply_dropout(np.ones(3), rate=1.0, rng=np.random.default_rng(0))


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

    def test_non_finite_gradient_raises(self):
        model = self.scalar_model()
        state = AdamState.zeros_like(model)
        grads = {name: np.zeros_like(arr)
                 for name, arr in parameter_items(model)}
        grads["dense.b_out"] = np.array([np.nan, 0.0, 0.0])
        with pytest.raises(TrainingDivergedError):
            adam_step(model, grads, state)


def toy_split(n=20, seed=0):
    """Separable toy dataset: class = which feature carries the big value."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        cls = int(rng.integers(0, 3))
        x = rng.normal(scale=0.05, size=(4, 3))
        x[:, cls] += 1.0
        y = np.zeros(3)
        y[cls] = 1.0
        samples.append(SequenceSample(inputs=x, target=y))
    k = max(2, n // 5)
    return DatasetSplit(train=samples[:-k], validation=samples[-k:],
                        test=samples[-k:])


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
        train_s = [SequenceSample(inputs=np.ones((2, 3)),
                                  target=np.array([1.0, 0.0, 0.0]))]
        val_s = [SequenceSample(inputs=np.ones((2, 3)),
                                target=np.array([0.0, 0.0, 1.0]))]
        split = DatasetSplit(train=train_s * 4, validation=val_s, test=val_s)
        model = init_parameters(self.small_config(), seed=0)
        cfg = TrainingConfig(max_epochs=50, batch_size=4, patience=1, seed=0)
        _, report = train(model, split, cfg)
        assert report.stopping_epoch == 2

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
        assert batch_loss(best, xs, ys) == pytest.approx(
            report.val_loss[report.best_epoch - 1], abs=1e-12)

    def test_empty_split_rejected(self):
        model = init_parameters(self.small_config(), seed=0)
        with pytest.raises(ValueError):
            train(model, DatasetSplit(train=[], validation=[], test=[]),
                  TrainingConfig())


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
            evaluate(model, [])
