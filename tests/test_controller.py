"""Scoring, threshold policy, controller warm-up, decision logs, replay."""

import numpy as np
import pytest

from congestionlab import experiment
from congestionlab.controller import (ControlAction, Controller,
                                      DecisionEntry, FlsController,
                                      LstmController, PolicyConfig,
                                      congestion_score, decide,
                                      write_decision_log,
                                      DECISION_LOG_HEADER)
from congestionlab.nn import (ModelConfig, parameter_count,
                              unflatten_parameters)
from congestionlab.telemetry import (CongestionLevel, NormalizationStats,
                                     TelemetryRecord)


def make_record(ts, occ=0.2):
    return TelemetryRecord(
        timestamp_s=ts, throughput_kbps=50.0, delay_ms=10.0,
        packet_loss_rate=0.0, queue_occupancy=occ, active_devices=20,
        label=CongestionLevel.LOW)


class TestScore:
    def test_pure_low(self):
        assert congestion_score([1.0, 0.0, 0.0]) == 0.0

    def test_pure_high(self):
        assert congestion_score([0.0, 0.0, 1.0]) == 1.0

    def test_weighted_sum(self):
        assert congestion_score([0.2, 0.3, 0.5]) == pytest.approx(0.65)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            congestion_score([0.5, 0.5])


class TestDecide:
    def test_below_threshold_none(self):
        assert decide(0.15, None) == ControlAction.NONE
        assert decide(0.49, 0.9) == ControlAction.NONE

    def test_rising_above_threshold_shapes(self):
        assert decide(0.68, 0.25) == ControlAction.TRAFFIC_SHAPING
        assert decide(0.50, 0.30) == ControlAction.TRAFFIC_SHAPING

    def test_first_trigger_shapes(self):
        assert decide(0.9, None) == ControlAction.TRAFFIC_SHAPING

    def test_falling_above_threshold_adjusts_qos(self):
        assert decide(0.50, 0.68) == ControlAction.QOS_ADJUSTMENT

    def test_flat_at_threshold_shapes(self):
        assert decide(0.5, 0.5) == ControlAction.TRAFFIC_SHAPING

    def test_out_of_range_score_rejected(self):
        with pytest.raises(ValueError):
            decide(1.2, None)


class TestPolicyConfig:
    def test_quantize(self):
        policy = PolicyConfig(score_decimals=2)
        assert policy.quantize(0.67891) == 0.68
        assert PolicyConfig(score_decimals=None).quantize(0.67891) == 0.67891

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            PolicyConfig(threshold=0.0)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            PolicyConfig(score_weights=(0.0, 0.9, 0.5))


def constant_probability_model(probs):
    """Zero model whose dense bias pins the softmax near `probs`."""
    cfg = ModelConfig(hidden_units=2, num_layers=1, features=5,
                      dropout_rate=0.0)
    model = unflatten_parameters(cfg, np.zeros(parameter_count(cfg)))
    model.dense.b_out = np.log(np.maximum(np.asarray(probs, dtype=float),
                                          1e-12))
    return model


class TestLstmController:
    def identity_stats(self):
        return NormalizationStats([0.0] * 5, [1.0] * 5)

    def test_warm_up_returns_none(self):
        ctrl = LstmController(constant_probability_model([0.0, 0.0, 1.0]),
                              self.identity_stats())
        for k in range(9):
            assert ctrl.control_step(make_record(float(k + 1))) \
                == ControlAction.NONE
            assert ctrl.last_score is None

    def test_high_probabilities_trigger_shaping(self):
        ctrl = LstmController(constant_probability_model([0.0, 0.0, 1.0]),
                              self.identity_stats())
        action = ControlAction.NONE
        for k in range(10):
            action = ctrl.control_step(make_record(float(k + 1)))
        assert ctrl.last_score == pytest.approx(1.0)
        assert action == ControlAction.TRAFFIC_SHAPING

    def test_identical_states_identical_outputs(self):
        records = [make_record(float(k + 1)) for k in range(10)]
        outputs = []
        for _ in range(2):
            ctrl = LstmController(constant_probability_model([0.0, 0.0, 1.0]),
                                  self.identity_stats())
            acts = [ctrl.control_step(r) for r in records]
            outputs.append((acts, ctrl.last_score))
        assert outputs[0] == outputs[1]

    def test_stats_feature_mismatch_rejected(self):
        with pytest.raises(ValueError, match="stats"):
            LstmController(constant_probability_model([1.0, 0.0, 0.0]),
                           NormalizationStats([0.0] * 3, [1.0] * 3))


class TestFlsController:
    def test_warm_up_then_scores(self):
        ctrl = FlsController()
        actions = [ctrl.control_step(make_record(float(k + 1), occ=0.05))
                   for k in range(ctrl.state.window_length + 2)]
        assert all(a == ControlAction.NONE
                   for a in actions[:ctrl.state.window_length - 1])
        assert ctrl.last_score is not None
        assert ctrl.last_score < 0.5

    def test_congested_window_triggers_action(self):
        ctrl = FlsController()
        action = ControlAction.NONE
        for k in range(ctrl.state.window_length):
            occ = min(0.95, 0.3 + 0.07 * k)
            action = ctrl.control_step(make_record(float(k + 1), occ=occ))
        assert action != ControlAction.NONE


class TestNullController:
    def test_always_none(self):
        ctrl = Controller()
        for k in range(12):
            assert ctrl.control_step(make_record(float(k + 1), occ=0.99)) \
                == ControlAction.NONE


class TestDecisionLog:
    def entries(self):
        return [
            DecisionEntry(10.0, None, 0.5, ControlAction.NONE, 59.0, "lstm"),
            DecisionEntry(20.0, 0.68, 0.5, ControlAction.TRAFFIC_SHAPING,
                          44.0, "lstm"),
            DecisionEntry(30.0, 0.50, 0.5, ControlAction.QOS_ADJUSTMENT,
                          45.0, "lstm"),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "decisions.csv"
        write_decision_log(path, self.entries())
        lines = path.read_text().splitlines()
        assert lines[0] == DECISION_LOG_HEADER
        assert len(lines) == 4
        assert lines[1].split(",")[1] == ""          # warm-up: empty score
        assert lines[2].split(",")[3] == "traffic_shaping"

    def test_replay_consistent_log(self):
        rows = [
            {"score": "", "action": "none"},
            {"score": "0.15", "action": "none"},
            {"score": "0.68", "action": "traffic_shaping"},
            {"score": "0.50", "action": "qos_adjustment"},
        ]
        assert experiment.replay_decisions(rows) == []

    def test_replay_flags_mismatch(self):
        rows = [
            {"score": "0.68", "action": "none"},
        ]
        mismatches = experiment.replay_decisions(rows)
        assert len(mismatches) == 1
        idx, recorded, recomputed = mismatches[0]
        assert idx == 0
        assert recorded == ControlAction.NONE
        assert recomputed == ControlAction.TRAFFIC_SHAPING

    def test_replay_all_low_scores(self):
        rows = [{"score": f"{0.1 * k:.2f}", "action": "none"}
                for k in range(1, 5)]
        assert experiment.replay_decisions(rows) == []

    def test_replay_empty_log(self):
        assert experiment.replay_decisions([]) == []
