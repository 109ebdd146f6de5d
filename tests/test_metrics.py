"""Throughput/delay/loss metrics, aggregation, pairing, config digests."""

import dataclasses

import numpy as np
import pytest

from congestionlab import metrics
from congestionlab.controller import ControlAction
from congestionlab.metrics import (ExperimentReport, IntervalMetrics,
                                   RunSummary, ThroughputSample, aggregate,
                                   compare, config_digest, interval_metrics,
                                   packet_loss_rate, throughput_eq7,
                                   total_delay)
from congestionlab.simulator import (DelayBreakdown, IntervalStats, SimConfig)


class TestThroughput:
    def test_59_kbps_case(self):
        assert throughput_eq7(ThroughputSample(59_000.0, 1.0)) == 59.0

    def test_zero_bits(self):
        assert throughput_eq7(ThroughputSample(0.0, 2.0)) == 0.0

    def test_linearity(self):
        base = throughput_eq7(ThroughputSample(10_000.0, 0.5))
        assert throughput_eq7(ThroughputSample(20_000.0, 0.5)) \
            == pytest.approx(2.0 * base)

    def test_nonpositive_rtt_rejected(self):
        with pytest.raises(ValueError):
            ThroughputSample(1000.0, 0.0)


class TestDelay:
    def test_sum(self):
        assert total_delay(DelayBreakdown(2.0, 3.0, 5.0, 1.0)) == 11.0

    def test_zero(self):
        assert total_delay(DelayBreakdown(0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_permutation_invariant(self):
        assert total_delay(DelayBreakdown(5.0, 1.0, 2.0, 3.0)) \
            == total_delay(DelayBreakdown(2.0, 3.0, 5.0, 1.0))

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            DelayBreakdown(-1.0, 0.0, 0.0, 0.0)


class TestLossRate:
    def test_zero_drops(self):
        assert packet_loss_rate(0, 100) == 0.0

    def test_quarter(self):
        assert packet_loss_rate(25, 100) == 0.25

    def test_zero_over_zero(self):
        assert packet_loss_rate(0, 0) == 0.0

    def test_dropped_exceeding_injected_rejected(self):
        with pytest.raises(ValueError):
            packet_loss_rate(5, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            packet_loss_rate(-1, 4)


def make_interval(index=0, injected=10, dropped=1, delays=(10.0, 20.0),
                  bits=2000.0):
    stats = IntervalStats(index=index, injected=injected, dropped=dropped,
                          delivered_bits=bits,
                          total_delays_ms=list(delays))
    return metrics.interval_metrics(stats, SimConfig())


class TestIntervalMetrics:
    def test_empty_interval(self):
        stats = IntervalStats(index=0)
        m = interval_metrics(stats, SimConfig())
        assert m.throughput_measured_kbps == 0.0
        assert m.throughput_eq7_kbps == 0.0
        assert m.mean_delay_ms == 0.0
        assert m.loss_rate == 0.0

    def test_measured_throughput(self):
        m = make_interval(bits=590_000.0)
        # 590,000 bits over a 10 s interval -> 59 Kbps
        assert m.throughput_measured_kbps == pytest.approx(59.0)

    def test_eq7_uses_rtt_proxy(self):
        m = make_interval(delays=(10.0, 30.0), bits=50_000.0)
        # mean one-way 20 ms -> RTT proxy 0.04 s
        assert m.throughput_eq7_kbps == pytest.approx(50_000.0 / 0.04 / 1000.0)

    def test_loss_and_percentiles(self):
        m = make_interval(injected=20, dropped=5,
                          delays=tuple(float(d) for d in range(1, 101)))
        assert m.loss_rate == 0.25
        assert m.median_delay_ms == pytest.approx(50.5)
        assert m.p95_delay_ms == pytest.approx(np.percentile(
            np.arange(1.0, 101.0), 95))


class TestAggregate:
    def test_single_interval_passthrough(self):
        iv = make_interval(injected=10, dropped=2, delays=(5.0, 15.0))
        summary = aggregate([iv])
        assert summary.loss_rate == pytest.approx(0.2)
        assert summary.mean_delay_ms == pytest.approx(iv.mean_delay_ms)
        assert summary.total_injected == 10

    def test_loss_pools_counts_not_rates(self):
        a = make_interval(index=0, injected=10, dropped=1)
        b = make_interval(index=1, injected=10, dropped=3)
        summary = aggregate([a, b])
        # (1+3)/(10+10), not mean(0.1, 0.3)
        assert summary.loss_rate == pytest.approx(4 / 20)

    def test_partition_independence_exact(self):
        rng = np.random.default_rng(0)
        injected = rng.integers(1, 50, size=12)
        dropped = [int(rng.integers(0, i + 1)) for i in injected]
        fine = [make_interval(index=k, injected=int(i), dropped=d)
                for k, (i, d) in enumerate(zip(injected, dropped))]
        summary_fine = aggregate(fine)
        # merge into 3 coarse partitions of 4 intervals each
        coarse = []
        for k in range(3):
            chunk = fine[4 * k:4 * k + 4]
            coarse.append(make_interval(
                index=k, injected=sum(c.injected for c in chunk),
                dropped=sum(c.dropped for c in chunk)))
        summary_coarse = aggregate(coarse)
        assert summary_fine.total_dropped == summary_coarse.total_dropped
        assert summary_fine.total_injected == summary_coarse.total_injected
        assert summary_fine.loss_rate == summary_coarse.loss_rate

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_action_histogram(self):
        a = make_interval(index=0)
        b = dataclasses.replace(a, action_in_force=
                                ControlAction.TRAFFIC_SHAPING)
        summary = aggregate([a, a, b])
        assert summary.actions_taken == {"none": 2, "traffic_shaping": 1}


class TestDigest:
    def test_stable_under_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2,
                                                                 "a": 1})

    def test_sensitive_to_values(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_length(self):
        assert len(config_digest({"a": 1})) == 16


def make_report(predictor="none", scenario="high", seed=1, loss=0.2,
                delay=100.0, throughput=80.0):
    iv = make_interval()
    summary = RunSummary(loss_rate=loss, mean_delay_ms=delay,
                         median_interval_delay_ms=delay,
                         p95_interval_delay_ms=delay,
                         mean_throughput_kbps=throughput,
                         total_injected=100, total_dropped=int(100 * loss))
    return ExperimentReport(scenario=scenario, predictor=predictor,
                            seed=seed, config_digest="deadbeef00000000",
                            intervals=[iv], summary=summary)


class TestCompare:
    def test_self_comparison_zero_deltas(self):
        report = make_report()
        delta = compare(report, report)
        assert delta.loss_delta == 0.0
        assert delta.delay_delta_ms == 0.0
        assert delta.throughput_delta_kbps == 0.0

    def test_paired_deltas(self):
        base = make_report(predictor="none", loss=0.2, delay=100.0)
        other = make_report(predictor="lstm", loss=0.1, delay=80.0)
        delta = compare(base, other)
        assert delta.loss_delta == pytest.approx(-0.1)
        assert delta.delay_delta_ms == pytest.approx(-20.0)

    def test_mismatched_seed_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            compare(make_report(seed=1), make_report(seed=2))

    def test_mismatched_scenario_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            compare(make_report(scenario="high"),
                    make_report(scenario="low"))

    def test_mismatched_config_digest_rejected(self):
        other = dataclasses.replace(make_report(), config_digest="0" * 16)
        with pytest.raises(ValueError, match="config digest mismatch"):
            compare(make_report(), other)


class TestReportText:
    def test_report_renders(self):
        text = make_report().to_text()
        assert "loss_rate: 0.2" in text
        assert "scenario: high" in text

    def test_intervals_csv_has_header_and_rows(self):
        report = make_report()
        lines = report.intervals_csv().splitlines()
        assert lines[0].startswith("interval,")
        assert len(lines) == 2
