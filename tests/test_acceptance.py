"""End-to-end acceptance gate.

Eight checks, one printed PASS/FAIL line each:
  1. policy table reproduction through decide()
  2. forward pass vs an independent step-by-step oracle
  3. analytic BPTT gradients vs central finite differences
  4. training effectiveness on simulator-generated data
  5. closed-loop benefit of the LSTM controller vs no control and the
     fuzzy baseline (paired seeds, High load)
  6. simulator conservation and byte-identical determinism
  7. metrics identities
  8. fuzzy-baseline monotonicity and RSI endpoints

Checks 4 and 5 share one trained model (session fixture); everything is
seeded, so the whole gate is reproducible run to run.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from congestionlab import experiment, metrics, nn, telemetry, training
from congestionlab.controller import ControlAction, decide, write_decision_log
from congestionlab.fls import rsi, fls_score
from congestionlab.nn import (DenseParameters, LstmLayerParameters,
                              ModelConfig, ModelParameters, forward,
                              forward_batch, init_parameters)
from congestionlab.simulator import (DelayBreakdown, IntervalStats,
                                     LoadScenario, SimConfig, run)
from congestionlab.training import (backward, finite_difference_gradient,
                                    flatten_gradients)


def report_line(number, name, passed):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status}")


# ---------------------------------------------------------------------------
# independent forward oracle (scalar loops, shares nothing with nn.forward)

def _oracle_forward(model, inputs):
    x_seq = [np.asarray(x, dtype=float) for x in inputs]
    for lp in model.layers:
        hid = lp.hidden_units
        h = np.zeros(hid)
        c = np.zeros(hid)
        out_seq = []
        for x in x_seq:
            z = np.concatenate([h, x])
            i = np.array([1.0 / (1.0 + math.exp(-(lp.w_i[j] @ z + lp.b_i[j])))
                          for j in range(hid)])
            f = np.array([1.0 / (1.0 + math.exp(-(lp.w_f[j] @ z + lp.b_f[j])))
                          for j in range(hid)])
            g = np.array([math.tanh(lp.w_c[j] @ z + lp.b_c[j])
                          for j in range(hid)])
            o = np.array([1.0 / (1.0 + math.exp(-(lp.w_o[j] @ z + lp.b_o[j])))
                          for j in range(hid)])
            c = f * c + i * g
            h = o * np.tanh(c)
            out_seq.append(h)
        x_seq = out_seq
    logits = model.dense.w_out @ x_seq[-1] + model.dense.b_out
    ex = np.exp(logits - logits.max())
    return ex / ex.sum()


# ---------------------------------------------------------------------------
# shared trained model for checks 4 and 5

TRAIN_DATA_SEED = 123
TRAIN_SEED = 11
PAIR_SEED = 999
RUNS_PER_SCENARIO = 17
RUN_DURATION_S = 110.0


@pytest.fixture(scope="session")
def trained_bundle():
    """~5,100 windowed samples over the three scenarios, then a full
    90-epoch-cap training run with the pinned hyperparameters."""
    t0 = time.monotonic()
    base = SimConfig(duration_s=RUN_DURATION_S, telemetry_interval_s=1.0,
                     seed=0)
    series_list = []
    for scenario in LoadScenario:
        for k in range(RUNS_PER_SCENARIO):
            cfg = dataclasses.replace(
                base, scenario=scenario,
                seed=experiment.derive_seed(TRAIN_DATA_SEED,
                                            f"gen/{scenario.value}/{k}"))
            series_list.append(experiment.generate_telemetry(cfg))
    training_config = training.TrainingConfig(
        learning_rate=0.001, max_epochs=90, batch_size=32, patience=10,
        seed=TRAIN_SEED)
    trained = experiment.train_pipeline(series_list, ModelConfig(),
                                        training_config)
    elapsed = time.monotonic() - t0
    n_samples = len(trained.split)
    return trained, n_samples, elapsed


class TestCriterion1PolicyTable:
    def test_policy_table_reproduction(self):
        t0 = time.monotonic()
        scores = [0.15, 0.12, 0.25, 0.68, 0.50]
        expected = [ControlAction.NONE, ControlAction.NONE,
                    ControlAction.NONE, ControlAction.TRAFFIC_SHAPING,
                    ControlAction.QOS_ADJUSTMENT]
        actions = []
        previous = None
        for score in scores:
            actions.append(decide(score, previous, threshold=0.5))
            previous = score
        elapsed = time.monotonic() - t0
        passed = actions == expected and elapsed < 1.0
        report_line(1, "policy table reproduction", passed)
        assert actions == expected
        assert elapsed < 1.0


class TestCriterion2ForwardOracle:
    def test_forward_oracle(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(20):
            hid = int(rng.integers(1, 5))
            feats = int(rng.integers(1, 6))
            layers = int(rng.integers(1, 3))
            steps = int(rng.integers(1, 6))
            cfg = ModelConfig(hidden_units=hid, num_layers=layers,
                              features=feats, classes=3, dropout_rate=0.0)
            model = init_parameters(cfg, seed=int(rng.integers(0, 2**31)))
            for lp in model.layers:
                lp.b_i = rng.normal(size=hid)
                lp.b_c = rng.normal(size=hid)
            x = rng.normal(size=(steps, feats))
            probs, _ = forward(model, x, train=False)
            worst = max(worst, float(np.abs(probs
                                            - _oracle_forward(model, x)).max()))

        # hand case: H=2, D=1, all-ones weights, zero biases, x=0.5; the
        # hidden state after the single step of a 1-layer, T=1 forward
        ones = np.ones((2, 3))
        zeros = np.zeros(2)
        lp = LstmLayerParameters(w_i=ones.copy(), w_f=ones.copy(),
                                 w_c=ones.copy(), w_o=ones.copy(),
                                 b_i=zeros.copy(), b_f=zeros.copy(),
                                 b_c=zeros.copy(), b_o=zeros.copy())
        hand_model = ModelParameters(
            config=ModelConfig(hidden_units=2, num_layers=1, features=1,
                               dropout_rate=0.0),
            layers=[lp], dense=DenseParameters(w_out=np.zeros((3, 2)),
                                               b_out=np.zeros(3)))
        _, trace = forward_batch(hand_model, np.full((1, 1, 1), 0.5))
        hand_ok = f"{trace.layer_h[0][1][0, 0]:.6f}" == "0.174270"

        elapsed = time.monotonic() - t0
        passed = worst < 1e-10 and hand_ok and elapsed < 10.0
        report_line(2, f"forward oracle (max abs err {worst:.2e})", passed)
        assert worst < 1e-10
        assert hand_ok
        assert elapsed < 10.0


class TestCriterion3GradientCheck:
    def test_gradient_check(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(777)
        models_checked = 0
        worst = 0.0
        for m in range(10):
            hid = int(rng.integers(2, 5))
            feats = int(rng.integers(2, 5))
            layers = int(rng.integers(1, 3))
            use_dropout = layers == 2 and m % 2 == 0
            cfg = ModelConfig(hidden_units=hid, num_layers=layers,
                              features=feats, classes=3,
                              dropout_rate=0.3 if use_dropout else 0.0)
            model = init_parameters(cfg, seed=int(rng.integers(0, 2**31)))
            steps = int(rng.integers(2, 5))
            x = rng.normal(size=(steps, feats))
            target = np.eye(3)[int(rng.integers(0, 3))]
            if use_dropout:
                _, trace = forward_batch(
                    model, x[None], train=True,
                    rng=np.random.default_rng(int(rng.integers(0, 2**31))))
                masks = trace.dropout_masks
            else:
                _, trace = forward_batch(model, x[None], train=False)
                masks = None
            grads = backward(model, trace, target[None])
            flat = flatten_gradients(model, grads)
            coords = rng.choice(flat.size, size=min(100, flat.size),
                                replace=False)
            for idx in coords:
                numeric = finite_difference_gradient(
                    model, x, target, int(idx), eps=1e-5,
                    dropout_masks=masks)
                denom = max(abs(numeric), abs(flat[idx]), 1e-8)
                rel = abs(numeric - flat[idx]) / denom
                worst = max(worst, rel)
            models_checked += 1
        elapsed = time.monotonic() - t0
        passed = worst < 1e-4 and models_checked >= 10 and elapsed < 120.0
        report_line(3, f"gradient check (worst rel err {worst:.2e}, "
                       f"{elapsed:.0f}s)", passed)
        assert worst < 1e-4
        assert models_checked >= 10
        assert elapsed < 120.0


class TestCriterion4TrainingEffectiveness:
    def test_training_effectiveness(self, trained_bundle):
        trained, n_samples, elapsed = trained_bundle
        result = training.evaluate(trained.model, trained.split.test)
        labels = [int(np.argmax(s.target)) for s in trained.split.test]
        majority = float(np.bincount(labels, minlength=3).max()
                         / len(labels))
        margin = result.accuracy - majority
        passed = (4000 <= n_samples <= 6000 and result.accuracy >= 0.85
                  and margin >= 0.15 and elapsed < 300.0)
        report_line(4, f"training effectiveness (n={n_samples}, "
                       f"acc={result.accuracy:.3f}, "
                       f"majority={majority:.3f}, {elapsed:.0f}s)", passed)
        assert 4000 <= n_samples <= 6000
        assert result.accuracy >= 0.85
        assert margin >= 0.15
        assert elapsed < 300.0


class TestCriterion5ClosedLoopBenefit:
    def test_closed_loop_benefit(self, trained_bundle):
        trained, _, _ = trained_bundle
        t0 = time.monotonic()
        losses = {"none": [], "lstm": [], "fls": []}
        delays = {"none": [], "lstm": [], "fls": []}
        for s in range(10):
            seed = experiment.derive_seed(PAIR_SEED, f"pair/{s}")
            sim_config = SimConfig(scenario=LoadScenario.HIGH, seed=seed)
            for predictor in ("none", "lstm", "fls"):
                controller = experiment.make_controller(
                    predictor, model=trained.model, stats=trained.stats)
                summary = experiment.run_experiment(
                    sim_config, controller).report.summary
                losses[predictor].append(summary.loss_rate)
                delays[predictor].append(summary.mean_delay_ms)
        elapsed = time.monotonic() - t0
        med_loss = {k: float(np.median(v)) for k, v in losses.items()}
        med_delay = {k: float(np.median(v)) for k, v in delays.items()}
        loss_vs_none = med_loss["lstm"] <= 0.8 * med_loss["none"]
        loss_vs_fls = med_loss["lstm"] <= med_loss["fls"]
        delay_vs_fls = med_delay["lstm"] <= med_delay["fls"]
        passed = (loss_vs_none and loss_vs_fls and delay_vs_fls
                  and elapsed < 120.0)
        report_line(5, "closed-loop benefit (median loss none/lstm/fls = "
                       f"{med_loss['none']:.4f}/{med_loss['lstm']:.4f}/"
                       f"{med_loss['fls']:.4f}; median delay lstm/fls = "
                       f"{med_delay['lstm']:.0f}/{med_delay['fls']:.0f} ms)",
                    passed)
        assert loss_vs_none, med_loss
        assert loss_vs_fls, med_loss
        assert delay_vs_fls, med_delay
        assert elapsed < 120.0


class TestCriterion6ConservationDeterminism:
    def test_conservation_and_determinism(self, tmp_path):
        violations = 0
        for seed in range(10):
            cfg = SimConfig(duration_s=100.0, scenario=LoadScenario.HIGH,
                            seed=seed)
            result = run(cfg, record_packets=False)
            violations += result.counters["conservation_violations"]
            balance = (result.counters["delivered"]
                       + result.counters["dropped"]
                       + result.counters["queued"]
                       + result.counters["in_flight"])
            violations += int(balance != result.counters["injected"])

        # byte-identical artifacts across two identical closed-loop runs
        identical = True
        cfg = SimConfig(duration_s=100.0, scenario=LoadScenario.HIGH, seed=3)
        artifacts = []
        for attempt in range(2):
            controller = experiment.make_controller("fls")
            exp_run = experiment.run_experiment(cfg, controller)
            tel = tmp_path / f"telemetry_{attempt}.csv"
            dec = tmp_path / f"decisions_{attempt}.csv"
            telemetry.write_csv(tel, exp_run.sim_result.telemetry)
            write_decision_log(dec, exp_run.decisions)
            artifacts.append((tel.read_bytes(), dec.read_bytes(),
                              exp_run.report.to_text()))
        identical = artifacts[0] == artifacts[1]

        passed = violations == 0 and identical
        report_line(6, "conservation and determinism", passed)
        assert violations == 0
        assert identical


class TestCriterion7MetricsIdentities:
    def test_metrics_identities(self):
        eq7_ok = metrics.throughput_eq7(
            metrics.ThroughputSample(59_000.0, 1.0)) == 59.0
        sum_ok = metrics.total_delay(
            DelayBreakdown(2.0, 3.0, 5.0, 1.0)) == 11.0

        # partition independence of pooled loss, exact on counts
        rng = np.random.default_rng(1)
        pooled_ok = True
        for _ in range(20):
            n = int(rng.integers(4, 30))
            injected = rng.integers(0, 40, size=n)
            dropped = np.array([int(rng.integers(0, i + 1))
                                for i in injected])
            cuts = np.sort(rng.choice(np.arange(1, n), size=min(3, n - 1),
                                      replace=False))
            fine = [self._interval(k, int(i), int(d))
                    for k, (i, d) in enumerate(zip(injected, dropped))]
            chunks = np.split(np.arange(n), cuts)
            coarse = [self._interval(k, int(injected[c].sum()),
                                     int(dropped[c].sum()))
                      for k, c in enumerate(chunks)]
            a = metrics.aggregate(fine)
            b = metrics.aggregate(coarse)
            if not (a.total_injected == b.total_injected
                    and a.total_dropped == b.total_dropped
                    and a.loss_rate == b.loss_rate):
                pooled_ok = False

        passed = eq7_ok and sum_ok and pooled_ok
        report_line(7, "metrics identities", passed)
        assert eq7_ok
        assert sum_ok
        assert pooled_ok

    @staticmethod
    def _interval(index, injected, dropped):
        stats = IntervalStats(index=index, injected=injected,
                              dropped=dropped)
        return metrics.interval_metrics(stats, SimConfig())


class TestCriterion8BaselineSanity:
    def test_baseline_sanity(self):
        endpoints_ok = (rsi(np.arange(11.0), 10) == 100.0
                        and rsi(np.arange(11.0)[::-1], 10) == 0.0
                        and rsi([0.0, 1.0] * 6, 10) == 50.0)

        occupancy_ok = True
        for rsi_value, trend_value in ((50.0, 0.0), (60.0, 0.1)):
            scores = [fls_score(rsi_value, trend_value, occ)
                      for occ in np.linspace(0.0, 1.0, 50)]
            if not np.all(np.diff(scores) >= -1e-9):
                occupancy_ok = False

        rsi_ok = True
        for trend_value, occ in ((0.0, 0.5), (0.5, 0.5)):
            scores = [fls_score(r, trend_value, occ)
                      for r in np.linspace(0.0, 100.0, 50)]
            if not np.all(np.diff(scores) >= -1e-9):
                rsi_ok = False

        passed = endpoints_ok and occupancy_ok and rsi_ok
        report_line(8, "baseline sanity", passed)
        assert endpoints_ok
        assert occupancy_ok
        assert rsi_ok
