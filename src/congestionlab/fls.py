"""Fuzzy-logic congestion scorer (FLS-approximate baseline).

Inputs: a relative strength index over the last RSI_WINDOW deltas of queue
occupancy, a normalized least-squares trend over the last TREND_WINDOW
points, and the current occupancy.  Each input is fuzzified over three
triangular terms, a 27-rule table maps term combinations to an output
congestion term, and Mamdani min-max inference with centroid
defuzzification yields a score in [0,1] that feeds the same decide() policy
as the LSTM.  The rule table takes occupancy severity as the base and lets
strongly rising momentum bump it up one step (a falling, weak market of
packets bumps it down).

This is a fixed stand-in for the cited comparison scheme, whose exact rule
base is not published here.
"""

from __future__ import annotations

import numpy as np

RSI_WINDOW = 10
TREND_WINDOW = 5

# peaks of the low / medium / high terms of each input
RSI_PEAKS = (0.0, 50.0, 100.0)
TREND_PEAKS = (-1.0, 0.0, 1.0)
OCCUPANCY_PEAKS = (0.0, 0.5, 1.0)


def _rule(r: int, t: int, o: int) -> int:
    """Occupancy severity is the base; high RSI with non-falling trend (or
    any RSI strength with a rising trend) escalates one step, and slack
    momentum (low RSI, falling trend) de-escalates one step."""
    if (r == 2 and t >= 1) or (r >= 1 and t == 2):
        return min(o + 1, 2)
    if r == 0 and t == 0:
        return max(o - 1, 0)
    return o


# output congestion term, indexed [rsi_term, trend_term, occupancy_term]
RULE_TABLE = np.fromfunction(np.vectorize(_rule), (3, 3, 3), dtype=int)

# Three non-overlapping symmetric output triangles of half-width 1/6 inside
# [0,1], one row per term, sampled on the defuzzification grid.  Symmetry
# keeps each term's clipped centroid pinned at its centre whatever the firing
# strength, which makes the score monotone under a monotone rule table.
OUTPUT_CENTRES = (1.0 / 6.0, 0.5, 5.0 / 6.0)
GRID = np.linspace(0.0, 1.0, 201)
OUTPUT_TERMS = np.clip(1.0 - np.abs(GRID - np.array(OUTPUT_CENTRES)[:, None])
                       / (1.0 / 6.0), 0.0, None)


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


def membership(value: float, peaks: tuple[float, float, float]) -> np.ndarray:
    """Degrees of the three triangular terms with saturating shoulders at the
    universe edges; adjacent degrees sum to 1 between consecutive peaks."""
    p0, p1, p2 = peaks
    value = float(np.clip(value, p0, p2))
    if value <= p1:
        frac = (value - p0) / (p1 - p0)
        return np.array([1.0 - frac, frac, 0.0])
    frac = (value - p1) / (p2 - p1)
    return np.array([0.0, 1.0 - frac, frac])


def fls_score(rsi_value: float, trend_value: float, occupancy: float) -> float:
    """Mamdani min-max inference + centroid defuzzification onto [0,1]."""
    deg_r = membership(rsi_value, RSI_PEAKS)
    deg_t = membership(trend_value, TREND_PEAKS)
    deg_o = membership(occupancy, OCCUPANCY_PEAKS)

    # each rule fires at the min of its degrees, and each output term at the
    # max over its rules
    firing = np.minimum.outer(np.minimum.outer(deg_r, deg_t), deg_o)
    strength = np.zeros(3)
    np.maximum.at(strength, RULE_TABLE, firing)

    # each term clipped at its strength, aggregated by max
    aggregate = np.minimum(OUTPUT_TERMS, strength[:, None]).max(axis=0)
    total = aggregate.sum()
    if total == 0.0:
        return 0.0
    return float((GRID * aggregate).sum() / total)
