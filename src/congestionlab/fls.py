"""Fuzzy-logic congestion scorer (FLS-approximate baseline).

Inputs: a relative strength index over recent queue occupancy, a normalized
least-squares trend, and the current occupancy.  Each input is fuzzified over
a three-term triangular partition, a 27-rule table maps term combinations to
an output congestion term, and Mamdani min-max inference with centroid
defuzzification yields a score in [0,1] that feeds the same decide() policy
as the LSTM.  The default rule table takes occupancy severity as the base
and lets strongly rising momentum bump it up one step (a falling, weak
market of packets bumps it down).

This is a stand-in for the cited comparison scheme, whose exact rule base is
not published here; every shape and rule is configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def rsi(series, window: int) -> float:
    """Relative strength index over the last `window` deltas: 100 - 100/(1+RS)
    with RS = mean gain / mean loss.  All-gain 100, all-loss 0, flat 50."""
    series = np.asarray(series, dtype=float)
    if len(series) < window + 1:
        raise ValueError(f"need {window + 1} points for RSI, got {len(series)}")
    deltas = np.diff(series[-(window + 1):])
    gains = np.clip(deltas, 0.0, None).mean()
    losses = np.clip(-deltas, 0.0, None).mean()
    if gains == 0.0 and losses == 0.0:
        return 50.0
    if losses == 0.0:
        return 100.0
    rs = gains / losses
    return 100.0 - 100.0 / (1.0 + rs)


def trend(series, window: int) -> float:
    """Least-squares slope over the last `window` points, normalized by the
    window's value range (0 when the range collapses)."""
    series = np.asarray(series, dtype=float)
    if len(series) < window:
        raise ValueError(f"need {window} points for trend, got {len(series)}")
    tail = series[-window:]
    value_range = tail.max() - tail.min()
    if value_range == 0.0:
        return 0.0
    x = np.arange(window, dtype=float)
    slope = np.polyfit(x, tail, 1)[0]
    return float(slope / value_range)


@dataclass
class TriangularPartition:
    """Three overlapping triangular terms with saturating shoulders at the
    universe edges; adjacent degrees sum to 1 between consecutive peaks."""

    peaks: tuple[float, float, float]

    def __post_init__(self):
        if not self.peaks[0] < self.peaks[1] < self.peaks[2]:
            raise ValueError("membership peaks must be strictly increasing")

    def membership(self, value: float) -> np.ndarray:
        p0, p1, p2 = self.peaks
        value = float(np.clip(value, p0, p2))
        deg = np.zeros(3)
        if value <= p1:
            frac = (value - p0) / (p1 - p0)
            deg[0] = 1.0 - frac
            deg[1] = frac
        else:
            frac = (value - p1) / (p2 - p1)
            deg[1] = 1.0 - frac
            deg[2] = frac
        return deg


@dataclass
class SymmetricOutputPartition:
    """Three non-overlapping symmetric triangles inside [0,1].

    Symmetry keeps each term's clipped centroid pinned at its center no
    matter the firing strength, which is what makes the defuzzified score
    monotone under a monotone rule table.
    """

    centers: tuple[float, float, float] = (1.0 / 6.0, 0.5, 5.0 / 6.0)
    halfwidth: float = 1.0 / 6.0

    def __post_init__(self):
        c = self.centers
        if not (c[0] < c[1] < c[2]) or self.halfwidth <= 0:
            raise ValueError("output centers must increase, halfwidth > 0")
        if c[0] - self.halfwidth < -1e-12 or c[2] + self.halfwidth > 1 + 1e-12:
            raise ValueError("output triangles must lie inside [0,1]")

    def membership(self, x: np.ndarray, term: int) -> np.ndarray:
        dist = np.abs(np.asarray(x, dtype=float) - self.centers[term])
        return np.clip(1.0 - dist / self.halfwidth, 0.0, None)


def default_rule_table() -> dict[tuple[int, int, int], int]:
    """Map (rsi_term, trend_term, occupancy_term) -> output congestion term.

    Occupancy severity is the base; high RSI with non-falling trend (or any
    RSI strength with a rising trend) escalates one step, and slack momentum
    (low RSI, falling trend) de-escalates one step.
    """
    table = {}
    for r in range(3):
        for t in range(3):
            for o in range(3):
                severity = o
                if (r == 2 and t >= 1) or (r >= 1 and t == 2):
                    severity += 1
                elif r == 0 and t == 0:
                    severity -= 1
                table[(r, t, o)] = int(np.clip(severity, 0, 2))
    return table


@dataclass
class FlsConfig:
    rsi_window: int = 10
    trend_window: int = 5
    rsi_partition: TriangularPartition = field(
        default_factory=lambda: TriangularPartition((0.0, 50.0, 100.0)))
    trend_partition: TriangularPartition = field(
        default_factory=lambda: TriangularPartition((-1.0, 0.0, 1.0)))
    occupancy_partition: TriangularPartition = field(
        default_factory=lambda: TriangularPartition((0.0, 0.5, 1.0)))
    output_partition: SymmetricOutputPartition = field(
        default_factory=SymmetricOutputPartition)
    rule_table: dict = field(default_factory=default_rule_table)
    defuzz_points: int = 201

    def __post_init__(self):
        expected = {(r, t, o) for r in range(3) for t in range(3)
                    for o in range(3)}
        if set(self.rule_table) != expected:
            raise ValueError("rule table must cover all 27 term combinations")


def fls_score(rsi_value: float, trend_value: float, occupancy: float,
              config: FlsConfig | None = None) -> float:
    """Mamdani min-max inference + centroid defuzzification onto [0,1]."""
    config = config or FlsConfig()
    deg_r = config.rsi_partition.membership(rsi_value)
    deg_t = config.trend_partition.membership(trend_value)
    deg_o = config.occupancy_partition.membership(occupancy)

    # rule firing strengths aggregated per output term (max over rules)
    strength = np.zeros(3)
    for (r, t, o), out_term in config.rule_table.items():
        fire = min(deg_r[r], deg_t[t], deg_o[o])
        if fire > strength[out_term]:
            strength[out_term] = fire

    xs = np.linspace(0.0, 1.0, config.defuzz_points)
    aggregate = np.zeros_like(xs)
    for term in range(3):
        if strength[term] == 0.0:
            continue
        member = config.output_partition.membership(xs, term)
        aggregate = np.maximum(aggregate, np.minimum(member, strength[term]))
    total = aggregate.sum()
    if total == 0.0:
        return 0.0
    return float((xs * aggregate).sum() / total)
