"""Throughput, delay, and loss metrics plus experiment-level aggregation.

Two throughput figures are kept apart and never conflated:
`throughput_eq7` (bits over round-trip time, with RTT proxied as twice the
mean one-way delay in this one-way simulator) and `throughput_measured`
(delivered bits per interval).  Loss aggregation pools drop/injection counts
across intervals rather than averaging per-interval rates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

# total_delay is defined next to DelayBreakdown and re-exported here
from .simulator import ControlAction, IntervalStats, SimConfig, total_delay


@dataclass
class ThroughputSample:
    bits_transmitted: float
    rtt_s: float

    def __post_init__(self):
        if self.bits_transmitted < 0:
            raise ValueError("bits transmitted must be non-negative")
        if self.rtt_s <= 0:
            raise ValueError("RTT must be positive")


def throughput_eq7(sample: ThroughputSample) -> float:
    """Bits over round-trip time, reported in Kbps."""
    return sample.bits_transmitted / sample.rtt_s / 1000.0


def packet_loss_rate(dropped: int, injected: int) -> float:
    """dropped/injected, with 0/0 defined as 0."""
    if dropped < 0 or injected < 0:
        raise ValueError("counts must be non-negative")
    if dropped > injected:
        raise ValueError(f"dropped ({dropped}) exceeds injected ({injected})")
    if injected == 0:
        return 0.0
    return dropped / injected


@dataclass
class IntervalMetrics:
    index: int
    throughput_measured_kbps: float
    throughput_eq7_kbps: float
    mean_delay_ms: float
    median_delay_ms: float
    p95_delay_ms: float
    loss_rate: float
    injected: int
    dropped: int
    action_in_force: ControlAction


def interval_metrics(stats: IntervalStats, config: SimConfig) -> IntervalMetrics:
    """Summarize one raw simulator interval."""
    delays = np.asarray(stats.total_delays_ms, dtype=float)
    if delays.size:
        mean_d = float(delays.mean())
        median_d = float(np.median(delays))
        p95_d = float(np.percentile(delays, 95))
    else:
        mean_d = median_d = p95_d = 0.0
    rtt_s = 2.0 * mean_d / 1000.0
    eq7 = (throughput_eq7(ThroughputSample(stats.delivered_bits, rtt_s))
           if rtt_s > 0 and stats.delivered_bits > 0 else 0.0)
    return IntervalMetrics(
        index=stats.index,
        throughput_measured_kbps=stats.delivered_bits
        / config.telemetry_interval_s / 1000.0,
        throughput_eq7_kbps=eq7,
        mean_delay_ms=mean_d,
        median_delay_ms=median_d,
        p95_delay_ms=p95_d,
        loss_rate=packet_loss_rate(stats.dropped, stats.injected),
        injected=stats.injected,
        dropped=stats.dropped,
        action_in_force=stats.action_in_force,
    )


def config_digest(config_dict: dict) -> str:
    """Stable content hash of a configuration mapping."""
    canonical = json.dumps(config_dict, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunSummary:
    loss_rate: float            # pooled: total dropped / total injected
    mean_delay_ms: float
    median_interval_delay_ms: float
    p95_interval_delay_ms: float
    mean_throughput_kbps: float
    total_injected: int
    total_dropped: int
    actions_taken: dict = field(default_factory=dict)


def aggregate(intervals: list[IntervalMetrics]) -> RunSummary:
    """Run-level aggregates; loss pools counts across intervals."""
    if not intervals:
        raise ValueError("cannot aggregate an empty interval series")
    injected = sum(iv.injected for iv in intervals)
    dropped = sum(iv.dropped for iv in intervals)
    mean_delays = np.array([iv.mean_delay_ms for iv in intervals])
    nonempty = mean_delays[[iv.injected > 0 for iv in intervals]]
    delay_pool = nonempty if nonempty.size else mean_delays
    actions: dict = {}
    for iv in intervals:
        key = str(iv.action_in_force)
        actions[key] = actions.get(key, 0) + 1
    return RunSummary(
        loss_rate=packet_loss_rate(dropped, injected),
        mean_delay_ms=float(delay_pool.mean()),
        median_interval_delay_ms=float(np.median(delay_pool)),
        p95_interval_delay_ms=float(np.percentile(delay_pool, 95)),
        mean_throughput_kbps=float(np.mean(
            [iv.throughput_measured_kbps for iv in intervals])),
        total_injected=injected,
        total_dropped=dropped,
        actions_taken=actions,
    )


@dataclass
class ExperimentReport:
    scenario: str
    predictor: str
    seed: int
    config_digest: str
    intervals: list[IntervalMetrics]
    summary: RunSummary

    def to_text(self) -> str:
        lines = [
            "experiment_report:",
            f"  scenario: {self.scenario}",
            f"  predictor: {self.predictor}",
            f"  seed: {self.seed}",
            f"  config_digest: {self.config_digest}",
            "  summary:",
            f"    loss_rate: {self.summary.loss_rate:.6f}",
            f"    mean_delay_ms: {self.summary.mean_delay_ms:.6f}",
            f"    median_interval_delay_ms: "
            f"{self.summary.median_interval_delay_ms:.6f}",
            f"    p95_interval_delay_ms: {self.summary.p95_interval_delay_ms:.6f}",
            f"    mean_throughput_kbps: {self.summary.mean_throughput_kbps:.6f}",
            f"    total_injected: {self.summary.total_injected}",
            f"    total_dropped: {self.summary.total_dropped}",
            "  actions:",
        ]
        for name, count in sorted(self.summary.actions_taken.items()):
            lines.append(f"    {name}: {count}")
        return "\n".join(lines) + "\n"

    def intervals_csv(self) -> str:
        lines = ["interval,throughput_measured_kbps,throughput_eq7_kbps,"
                 "mean_delay_ms,median_delay_ms,p95_delay_ms,loss_rate,"
                 "injected,dropped,action"]
        for iv in self.intervals:
            lines.append(
                f"{iv.index},{iv.throughput_measured_kbps:.6f},"
                f"{iv.throughput_eq7_kbps:.6f},{iv.mean_delay_ms:.6f},"
                f"{iv.median_delay_ms:.6f},{iv.p95_delay_ms:.6f},"
                f"{iv.loss_rate:.6f},{iv.injected},{iv.dropped},"
                f"{iv.action_in_force}")
        return "\n".join(lines) + "\n"


@dataclass
class PairedComparison:
    scenario: str
    seed: int
    baseline_predictor: str
    other_predictor: str
    loss_delta: float        # other - baseline
    delay_delta_ms: float
    throughput_delta_kbps: float


def compare(baseline: ExperimentReport, other: ExperimentReport
            ) -> PairedComparison:
    """Paired deltas between two runs of the same scenario, seed and
    simulator config, i.e. of the same traffic."""
    keys = [(r.scenario, r.seed, r.config_digest) for r in (baseline, other)]
    if keys[0] != keys[1]:
        raise ValueError("cannot pair reports: scenario/seed/config digest "
                         "mismatch ({}/{}/{} vs {}/{}/{})".format(
                             *keys[0], *keys[1]))
    return PairedComparison(
        scenario=baseline.scenario,
        seed=baseline.seed,
        baseline_predictor=baseline.predictor,
        other_predictor=other.predictor,
        loss_delta=other.summary.loss_rate - baseline.summary.loss_rate,
        delay_delta_ms=other.summary.mean_delay_ms
        - baseline.summary.mean_delay_ms,
        throughput_delta_kbps=other.summary.mean_throughput_kbps
        - baseline.summary.mean_throughput_kbps,
    )
