"""Network forward-pass tests against independent step-by-step oracles.

The oracle below re-implements the recurrence directly from the gate
equations with plain loops, sharing no code with the library's batched
implementation.
"""

import math

import numpy as np
import pytest

from congestionlab import nn, training
from congestionlab.nn import (DenseParameters, LstmLayerParameters,
                              ModelConfig, ModelParameters, dense_softmax,
                              flatten_parameters, forward, forward_batch,
                              init_parameters, parameter_count,
                              predict_class, sigmoid, softmax,
                              unflatten_parameters)
from congestionlab.telemetry import CongestionLevel


def oracle_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def oracle_forward(model, inputs, dropout_masks=None):
    """Step-by-step scalar-loop recomputation of the stacked forward pass."""
    x_seq = [np.asarray(x, dtype=float) for x in inputs]
    for layer_idx, lp in enumerate(model.layers):
        hid = lp.hidden_units
        h = np.zeros(hid)
        c = np.zeros(hid)
        out_seq = []
        for t, x in enumerate(x_seq):
            z = np.concatenate([h, x])
            i = np.array([oracle_sigmoid(lp.w_i[j] @ z + lp.b_i[j])
                          for j in range(hid)])
            f = np.array([oracle_sigmoid(lp.w_f[j] @ z + lp.b_f[j])
                          for j in range(hid)])
            c_tilde = np.array([math.tanh(lp.w_c[j] @ z + lp.b_c[j])
                                for j in range(hid)])
            o = np.array([oracle_sigmoid(lp.w_o[j] @ z + lp.b_o[j])
                          for j in range(hid)])
            c = f * c + i * c_tilde
            h = o * np.tanh(c)
            out = h
            if dropout_masks is not None and layer_idx < len(model.layers) - 1:
                out = out * dropout_masks[layer_idx][t, 0]
            out_seq.append(out)
        x_seq = out_seq
    logits = model.dense.w_out @ x_seq[-1] + model.dense.b_out
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def random_small_model(rng):
    hid = int(rng.integers(1, 5))
    feats = int(rng.integers(1, 6))
    layers = int(rng.integers(1, 3))
    cfg = ModelConfig(hidden_units=hid, num_layers=layers, features=feats,
                      classes=3, dropout_rate=0.0)
    model = init_parameters(cfg, seed=int(rng.integers(0, 2**31)))
    # perturb biases away from the structured init for a harder comparison
    for lp in model.layers:
        for name in ("b_i", "b_f", "b_c", "b_o"):
            setattr(lp, name, rng.normal(size=hid))
    model.dense.b_out = rng.normal(size=3)
    return model


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_symmetry(self):
        for x in (-5.0, -0.3, 0.7, 3.2):
            assert sigmoid(x) == pytest.approx(1.0 - sigmoid(-x), abs=1e-15)

    def test_sigmoid_at_two(self):
        assert sigmoid(2.0) == pytest.approx(0.8807970779778823, abs=1e-12)

    def test_sigmoid_extreme_values_stable(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0

    def test_softmax_equal_logits(self):
        for a in (-3.0, 0.0, 7.5):
            np.testing.assert_allclose(softmax([a, a, a]), [1 / 3] * 3)

    def test_softmax_ln2_case(self):
        np.testing.assert_allclose(softmax([math.log(2.0), 0.0, 0.0]),
                                   [0.5, 0.25, 0.25], atol=1e-12)

    def test_softmax_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.4])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0),
                                   atol=1e-12)


def zero_layer(hid, din):
    z = np.zeros((hid, hid + din))
    b = np.zeros(hid)
    return LstmLayerParameters(w_i=z.copy(), w_f=z.copy(), w_c=z.copy(),
                               w_o=z.copy(), b_i=b.copy(), b_f=b.copy(),
                               b_c=b.copy(), b_o=b.copy())


def one_layer_trace(lp, inputs):
    """forward_batch trace of a 1-layer model built around `lp`, over a
    (T, D) input sequence at B=1."""
    hid, din = lp.hidden_units, lp.input_width
    cfg = ModelConfig(hidden_units=hid, num_layers=1, features=din,
                      dropout_rate=0.0)
    dense = DenseParameters(w_out=np.zeros((3, hid)), b_out=np.zeros(3))
    model = ModelParameters(config=cfg, layers=[lp], dense=dense)
    _, trace = forward_batch(model, np.asarray(inputs, dtype=float)[None])
    return trace


class TestLstmStep:
    """Single recurrent steps, read from the forward_batch trace: the i, f,
    c~, o gates at step t are trace.layer_gates[0][t], states after it
    trace.layer_h/c[0][t+1]."""

    def test_all_zero_parameters_zero_state(self):
        trace = one_layer_trace(zero_layer(3, 2), np.zeros((1, 2)))
        i, f, c_tilde, o = trace.layer_gates[0][0]
        np.testing.assert_array_equal(i, 0.5)
        np.testing.assert_array_equal(f, 0.5)
        np.testing.assert_array_equal(o, 0.5)
        np.testing.assert_array_equal(c_tilde, 0.0)
        np.testing.assert_array_equal(trace.layer_c[0][1], 0.0)
        np.testing.assert_array_equal(trace.layer_h[0][1], 0.0)

    def test_zero_parameters_nonzero_cell(self):
        # zero weights with a candidate bias: every gate is 0.5 and the
        # candidate is tanh(b_c), so step 1 leaves a non-zero cell c1 that
        # step 2 must carry through the forget gate
        lp = zero_layer(3, 2)
        lp.b_c = np.array([0.4, -1.2, 2.0])
        trace = one_layer_trace(lp, np.zeros((2, 2)))
        c1 = trace.layer_c[0][1][0]
        np.testing.assert_allclose(c1, 0.5 * np.tanh(lp.b_c))
        c2 = 0.5 * c1 + 0.5 * np.tanh(lp.b_c)
        np.testing.assert_allclose(trace.layer_c[0][2][0], c2)
        np.testing.assert_allclose(trace.layer_h[0][2][0], 0.5 * np.tanh(c2))

    def test_hand_case_h2_d1_all_ones(self):
        ones = np.ones((2, 3))
        zeros = np.zeros(2)
        lp = LstmLayerParameters(w_i=ones.copy(), w_f=ones.copy(),
                                 w_c=ones.copy(), w_o=ones.copy(),
                                 b_i=zeros.copy(), b_f=zeros.copy(),
                                 b_c=zeros.copy(), b_o=zeros.copy())
        trace = one_layer_trace(lp, [[0.5]])
        c_state, h_state = trace.layer_c[0][1][0], trace.layer_h[0][1][0]
        # hand-computed: each pre-activation is 0.5
        gate = oracle_sigmoid(0.5)            # 0.6224593312018546
        c_tilde = math.tanh(0.5)              # 0.46211715726000974
        c_t = gate * c_tilde                  # 0.28764913664496794
        h_t = gate * math.tanh(c_t)           # 0.17426971865610508
        i, _, c_tilde_t, _ = trace.layer_gates[0][0]
        np.testing.assert_allclose(i, gate, atol=1e-12)
        np.testing.assert_allclose(c_tilde_t, c_tilde, atol=1e-12)
        np.testing.assert_allclose(c_state, c_t, atol=1e-12)
        np.testing.assert_allclose(h_state, h_t, atol=1e-12)
        # six printed digits of the frozen oracle value
        assert f"{h_state[0]:.6f}" == "0.174270"

    def test_input_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"expected \(B, T, 2\) inputs"):
            one_layer_trace(zero_layer(3, 2), np.zeros((1, 5)))


class TestGateStack:
    """LstmLayerParameters holds one (4, H, H+D) weight and one (4, H) bias
    stack; the per-gate names are views into it."""

    def test_gate_views_write_through(self):
        model = init_parameters(ModelConfig(hidden_units=3, num_layers=1,
                                            features=2, dropout_rate=0.0),
                                seed=4)
        lp = model.layers[0]
        assert lp.w.shape == (4, 3, 5) and lp.b.shape == (4, 3)
        x = np.random.default_rng(0).random((4, 2))
        before, _ = forward(model, x)
        v = np.array([0.3, -0.7, 1.1])
        lp.b_c = v
        np.testing.assert_array_equal(lp.b[2], v)
        np.testing.assert_array_equal(lp.b_c, v)
        after, _ = forward(model, x)
        assert not np.array_equal(before, after)
        # the optimizer updates the stack through parameter_items' views
        w_before = lp.w.copy()
        _, trace = forward_batch(model, x[None], train=True,
                                 rng=np.random.default_rng(1))
        grads = training.backward(model, trace, np.array([[0.0, 1.0, 0.0]]))
        training.adam_step(model, grads, training.AdamState.zeros_like(model))
        assert not np.array_equal(lp.w, w_before)
        np.testing.assert_array_equal(lp.w[0], lp.w_i)

    @pytest.mark.parametrize("bad, match", [
        (dict(w_o=np.zeros((3, 4))), "share one shape"),
        (dict(w_i=np.zeros(5), w_f=np.zeros(5), w_c=np.zeros(5),
              w_o=np.zeros(5)), "share one shape"),
        (dict(b_f=np.zeros(4)), "bias length"),
        (dict(b_o=np.zeros((1, 3))), "bias length"),
    ], ids=["one-gate-shape", "vector-weights", "bias-length", "bias-2d"])
    def test_constructor_rejects_mismatched_shapes(self, bad, match):
        gates = dict(w_i=np.zeros((3, 5)), w_f=np.zeros((3, 5)),
                     w_c=np.zeros((3, 5)), w_o=np.zeros((3, 5)),
                     b_i=np.zeros(3), b_f=np.zeros(3), b_c=np.zeros(3),
                     b_o=np.zeros(3))
        with pytest.raises(ValueError, match=match):
            LstmLayerParameters(**{**gates, **bad})


class TestForward:
    def test_zero_parameters_uniform_probabilities(self):
        cfg = ModelConfig(hidden_units=3, num_layers=2, features=4,
                          dropout_rate=0.0)
        model = unflatten_parameters(cfg, np.zeros(parameter_count(cfg)))
        probs, _ = forward(model, np.random.default_rng(0).random((6, 4)))
        np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-12)

    def test_inference_deterministic(self):
        model = init_parameters(ModelConfig(hidden_units=4, features=5), seed=3)
        x = np.random.default_rng(1).random((10, 5))
        p1, _ = forward(model, x, train=False)
        p2, _ = forward(model, x, train=False)
        np.testing.assert_array_equal(p1, p2)

    def test_forward_matches_oracle_on_random_small_models(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            model = random_small_model(rng)
            steps = int(rng.integers(1, 6))
            x = rng.normal(size=(steps, model.config.features))
            probs, _ = forward(model, x, train=False)
            expected = oracle_forward(model, x)
            np.testing.assert_allclose(probs, expected, atol=1e-10)

    def test_chained_hand_case_t3(self):
        # T=3, H=2 single layer with all-ones weights, chained from the
        # single-step hand case; compare against the loop oracle
        ones = np.ones((2, 3))
        zeros = np.zeros(2)
        lp = LstmLayerParameters(w_i=ones.copy(), w_f=ones.copy(),
                                 w_c=ones.copy(), w_o=ones.copy(),
                                 b_i=zeros.copy(), b_f=zeros.copy(),
                                 b_c=zeros.copy(), b_o=zeros.copy())
        dense = DenseParameters(w_out=np.eye(3, 2), b_out=np.zeros(3))
        cfg = ModelConfig(hidden_units=2, num_layers=1, features=1,
                          dropout_rate=0.0)
        model = ModelParameters(config=cfg, layers=[lp], dense=dense)
        x = np.full((3, 1), 0.5)
        probs, _ = forward(model, x, train=False)
        np.testing.assert_allclose(probs, oracle_forward(model, x), atol=1e-10)

    def test_train_mode_dropout_matches_oracle_with_frozen_masks(self):
        cfg = ModelConfig(hidden_units=3, num_layers=2, features=4,
                          dropout_rate=0.2)
        model = init_parameters(cfg, seed=9)
        x = np.random.default_rng(2).random((5, 4))
        probs, trace = forward(model, x, train=True,
                               rng=np.random.default_rng(7))
        expected = oracle_forward(model, x,
                                  dropout_masks=trace.dropout_masks)
        np.testing.assert_allclose(probs, expected, atol=1e-10)

    def test_bad_input_shape_rejected(self):
        model = init_parameters(ModelConfig(hidden_units=2, features=3), seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((4,)))
        with pytest.raises(ValueError):
            forward(model, np.zeros((4, 7)))


class TestDenseAndPrediction:
    def test_dense_softmax_is_softmax_of_affine(self):
        params = DenseParameters(w_out=np.array([[1.0, 0.0], [0.0, 1.0],
                                                 [1.0, 1.0]]),
                                 b_out=np.array([0.1, 0.2, 0.3]))
        h = np.array([0.5, -0.5])
        np.testing.assert_allclose(
            dense_softmax(params, h),
            softmax(params.w_out @ h + params.b_out), atol=1e-15)

    def test_argmax_cases(self):
        assert predict_class([0.1, 0.2, 0.7]) == CongestionLevel.HIGH
        assert predict_class([0.6, 0.3, 0.1]) == CongestionLevel.LOW

    def test_tie_breaks_toward_higher_level(self):
        assert predict_class([1 / 3, 1 / 3, 1 / 3]) == CongestionLevel.HIGH
        assert predict_class([0.4, 0.4, 0.2]) == CongestionLevel.MEDIUM


class TestInitAndFlattening:
    def test_same_seed_bitwise_identical(self):
        cfg = ModelConfig()
        a = flatten_parameters(init_parameters(cfg, seed=11))
        b = flatten_parameters(init_parameters(cfg, seed=11))
        np.testing.assert_array_equal(a, b)

    def test_forget_bias_ones(self):
        model = init_parameters(ModelConfig(), seed=0)
        for lp in model.layers:
            np.testing.assert_array_equal(lp.b_f, 1.0)
            np.testing.assert_array_equal(lp.b_i, 0.0)

    def test_glorot_limits_respected(self):
        model = init_parameters(ModelConfig(), seed=5)
        lp = model.layers[0]
        limit = math.sqrt(6.0 / (64 + 64 + 5))
        assert np.abs(lp.w_i).max() <= limit

    def test_parameter_count_default_config(self):
        # layer1 4*(64*(64+5)+64) = 17,920; layer2 4*(64*128+64) = 33,024;
        # dense 64*3+3 = 195
        assert parameter_count(ModelConfig()) == 17920 + 33024 + 195 == 51139

    def test_parameter_count_tiny_config(self):
        cfg = ModelConfig(hidden_units=1, num_layers=1, features=1)
        assert parameter_count(cfg) == 4 * (1 * 2 + 1) + (1 * 3 + 3) == 18

    def test_zero_layer_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(num_layers=0)

    def test_count_matches_allocated_entries(self):
        for cfg in (ModelConfig(), ModelConfig(hidden_units=3, num_layers=1,
                                               features=2)):
            model = init_parameters(cfg, seed=0)
            allocated = sum(arr.size for _, arr in nn.parameter_items(model))
            assert allocated == parameter_count(cfg)

    def test_flatten_unflatten_round_trip(self):
        cfg = ModelConfig(hidden_units=4, num_layers=2, features=3)
        model = init_parameters(cfg, seed=21)
        theta = flatten_parameters(model)
        back = flatten_parameters(unflatten_parameters(cfg, theta))
        np.testing.assert_array_equal(theta, back)

    def test_unflatten_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            unflatten_parameters(ModelConfig(), np.zeros(7))
