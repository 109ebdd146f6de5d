"""Discrete-event simulation of IoT devices feeding a bounded gateway queue.

Topology: N devices generate Poisson packet arrivals into one drop-tail
gateway queue served by a single uplink at the configured capacity.  Load
scenarios scale the aggregate offered rate relative to link capacity
(Low 0.4x, Medium 0.8x, High 1.25x).  At each telemetry interval the run
summarizes the interval into a TelemetryRecord, hands it to an optional
controller hook, and applies the ControlAction it returns (any other return
raises SimulationError):

* TRAFFIC_SHAPING gates packet injection through a token bucket refilling at
  80% of link capacity; arrivals the bucket cannot cover are suppressed at
  the source (the device holds the packet back; it is never injected).
* QOS_ADJUSTMENT switches the queue to two-class strict priority, with the
  delay-sensitive class served first and allowed to displace the newest
  low-priority packet when the buffer is full.
* NONE restores full-rate FIFO service.

The queue is two FIFOs of enqueue times, `SimState.high` and `SimState.low`:
the FIFO a packet waits in is its class, and both share `buffer_packets`.
FIFO service takes the older of the two heads; QoS takes `high`'s head
whenever it has one.

Each device draws its exponential arrival gaps from its own substream of
the seed in one call and sums them in order; the devices merge by (time,
device).  Per-packet delay is ((propagation + transmission) + queueing) +
processing, in that order both in `total_delay` and inline in `run`.
Runs are deterministic under (config, seed).
Event order: a departure tied with an arrival goes first, and an event at
an interval boundary counts in the next interval.  An arrival at an idle
link enters service at once; at a busy link `run`'s arrival branch applies
the one admission and displacement rule.  The loop reads the queue length
once per event, after it, for the conservation check and the next event.

Every packet is `SimConfig.packet_size_bits` long.  `run` returns a
SimResult carrying only aggregates: one TelemetryRecord and one IntervalStats
per telemetry interval (injected and dropped counts, delivered bits, each
delivered packet's total delay, and the action in force), plus the
run's end counters (injected, delivered, dropped, suppressed, queued,
in_flight and conservation_violations).  No per-packet log is kept.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .telemetry import CongestionLevel, TelemetryRecord, check_fields


class SimulationError(ValueError):
    pass


class ControlAction(Enum):
    NONE = "none"
    TRAFFIC_SHAPING = "traffic_shaping"
    QOS_ADJUSTMENT = "qos_adjustment"

    @classmethod
    def parse(cls, token: str) -> "ControlAction":
        return cls(token.strip().lower())

    def __str__(self) -> str:
        return self.value


# a run holds one record per interval and draws every arrival up front
MAX_COUNT = 10**7
# schedule_arrivals draws mean + this many sqrt(mean) gaps per device at once
ARRIVAL_OVERDRAW_SIGMAS = 6.0


class LoadScenario(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @property
    def load_multiplier(self) -> float:
        return {"low": 0.4, "medium": 0.8, "high": 1.25}[self.value]


@dataclass
class SimConfig:
    duration_s: float = 300.0
    device_count: int = 20
    link_capacity_bps: float = 100_000.0
    packet_size_bits: float = 1000.0
    buffer_packets: int = 50
    propagation_ms: float = 2.0
    processing_ms: float = 0.5
    telemetry_interval_s: float = 10.0
    scenario: LoadScenario = LoadScenario.MEDIUM
    load_multiplier: float | None = None  # overrides the scenario preset
    priority_fraction: float = 0.2        # share of devices that are delay-sensitive
    shaping_fraction: float = 0.8         # token-bucket rate as share of capacity
    seed: int = 0

    def __post_init__(self):
        check_fields(self, SimulationError, positive=(
            "duration_s", "link_capacity_bps", "packet_size_bits",
            "buffer_packets", "telemetry_interval_s"), non_negative=(
            "device_count", "propagation_ms", "processing_ms",
            "load_multiplier", "seed"),
            fraction=("priority_fraction", "shaping_fraction"))
        n = self.duration_s / self.telemetry_interval_s
        if not np.isfinite(n) or abs(n - round(n)) > 1e-9:
            raise SimulationError("telemetry_interval_s must divide duration_s")
        for count, what in ((n, "duration_s / telemetry_interval_s"),
                            (self.device_count, "device_count"),
                            (self.per_device_rate_pps * self.device_count
                             * self.duration_s, "expected arrivals (load x "
                             "link_capacity_bps / packet_size_bits x duration_s)")):
            if count > MAX_COUNT:
                raise SimulationError(f"{what} is {count:.4g}, above {MAX_COUNT}")

    @property
    def effective_load(self) -> float:
        if self.load_multiplier is not None:
            return self.load_multiplier
        return self.scenario.load_multiplier

    @property
    def per_device_rate_pps(self) -> float:
        """Poisson rate per device so aggregate offered bits = load x capacity."""
        if self.device_count == 0:
            return 0.0
        aggregate_pps = (self.effective_load * self.link_capacity_bps
                         / self.packet_size_bits)
        return aggregate_pps / self.device_count

    @property
    def intervals(self) -> int:
        return int(round(self.duration_s / self.telemetry_interval_s))


@dataclass
class DelayBreakdown:
    propagation_ms: float
    transmission_ms: float
    queueing_ms: float
    processing_ms: float

    def __post_init__(self):
        for value in (self.propagation_ms, self.transmission_ms,
                      self.queueing_ms, self.processing_ms):
            if value < 0:
                raise ValueError("delay components must be non-negative")


def total_delay(breakdown: DelayBreakdown) -> float:
    """Exact four-component sum, in a fixed order."""
    return (breakdown.propagation_ms + breakdown.transmission_ms
            + breakdown.queueing_ms + breakdown.processing_ms)


def label_congestion(mean_occupancy: float) -> CongestionLevel:
    """Occupancy-threshold labels: <0.4 low, [0.4,0.7) medium, >=0.7 high."""
    if not 0.0 <= mean_occupancy <= 1.0:
        raise SimulationError(f"occupancy {mean_occupancy} outside [0,1]")
    if mean_occupancy < 0.4:
        return CongestionLevel.LOW
    if mean_occupancy < 0.7:
        return CongestionLevel.MEDIUM
    return CongestionLevel.HIGH


def schedule_arrivals(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Pre-draw every device's Poisson arrival times and merge them into
    (times, devices) arrays in (time, device) order.  Each device gets its
    own substream of `config.seed` so the merged stream is reproducible.

    A device's gaps are drawn in batches and summed in order: bit for bit
    the times of adding one gap at a time up to `duration_s`."""
    rate = config.per_device_rate_pps
    if rate <= 0:
        return np.empty(0), np.empty(0, dtype=int)
    scale, end = 1.0 / rate, config.duration_s
    mean = rate * end
    draws = max(1, int(mean + ARRIVAL_OVERDRAW_SIGMAS * np.sqrt(mean)) + 1)
    times, devices = [], []
    for device in range(config.device_count):
        rng = np.random.default_rng([config.seed, device])
        t = np.cumsum(rng.exponential(scale, size=draws))
        chunks = [t]
        while t[-1] < end:  # same stream, summed on from the last time
            more = rng.exponential(scale, size=draws)
            t = np.cumsum(np.concatenate(([t[-1]], more)))[1:]
            chunks.append(t)
        t = np.concatenate(chunks)
        t = t[:np.searchsorted(t, end, side="left")]
        times.append(t)
        devices.append(np.full(t.size, device))
    times, devices = np.concatenate(times), np.concatenate(devices)
    order = np.lexsort((devices, times))
    return times[order], devices[order]


@dataclass
class TokenBucket:
    rate_bps: float
    depth_bits: float
    tokens: float = 0.0
    last_refill_s: float = 0.0

    def admit(self, now: float, size_bits: float) -> bool:
        self.tokens = min(self.depth_bits,
                          self.tokens + self.rate_bps * (now - self.last_refill_s))
        self.last_refill_s = now
        if self.tokens >= size_bits:
            self.tokens -= size_bits
            return True
        return False


@dataclass
class IntervalStats:
    """Raw per-interval accumulators, consumed by metrics.interval_metrics."""
    index: int
    injected: int = 0
    dropped: int = 0
    delivered_bits: float = 0.0
    total_delays_ms: list[float] = field(default_factory=list)
    action_in_force: ControlAction = ControlAction.NONE


@dataclass
class SimState:
    config: SimConfig
    # enqueue times of the queued packets of each class, oldest first
    high: deque = field(default_factory=deque)
    low: deque = field(default_factory=deque)
    action: ControlAction = ControlAction.NONE
    shaper: TokenBucket | None = None


def apply_action(state: SimState, action: ControlAction, now: float = 0.0):
    """Put `action` in force at the gateway; it persists until changed.
    Shaping keeps a bucket already installed; the other actions drop it."""
    if not isinstance(action, ControlAction):
        raise SimulationError(f"unknown action {action!r}")
    if action is not ControlAction.TRAFFIC_SHAPING:
        state.shaper = None
    elif state.shaper is None:
        config = state.config
        depth = 2.0 * config.packet_size_bits  # two packets' worth
        state.shaper = TokenBucket(
            rate_bps=config.shaping_fraction * config.link_capacity_bps,
            depth_bits=depth, tokens=depth, last_refill_s=now)
    state.action = action


@dataclass
class SimResult:
    telemetry: list[TelemetryRecord]
    intervals: list[IntervalStats]
    counters: dict


def run(config: SimConfig, controller_hook=None) -> SimResult:
    """Execute the event loop over the configured duration.

    `controller_hook(record)` is invoked after each telemetry interval and
    must return a ControlAction, which is applied before the next interval
    starts; any other return raises SimulationError.
    Ties go to the departure, which starts the next service: the head of
    `high` under QoS or when it is not later than `low`'s, else `low`'s.  An
    arrival at an idle link is served at once; at a busy one it joins its
    class FIFO, drop-tail, or under QoS a high one displaces the newest low.
    The queue length is read once after each event and once after the hook.
    """
    times, devices = schedule_arrivals(config)
    high_priority_devices = int(round(config.priority_fraction
                                      * config.device_count))
    inf = float("inf")
    arrival_times = times.tolist() + [inf]
    is_high = (devices < high_priority_devices).tolist()
    size = config.packet_size_bits
    service_s = size / config.link_capacity_bps
    # total_delay's order: (propagation + transmission) + queueing + processing
    fixed_ms = config.propagation_ms + service_s * 1000.0
    processing_ms, buffer_packets = config.processing_ms, config.buffer_packets

    state = SimState(config=config)
    high, low = state.high, state.low
    telemetry: list[TelemetryRecord] = []
    interval_log: list[IntervalStats] = []

    injected = delivered = dropped = suppressed = violations = 0
    last_occ_time = 0.0
    arrival_idx = 0
    service_end = inf  # time the packet in service finishes; inf when idle
    queued_ms = 0.0    # the queueing delay of the packet in service

    for interval_idx in range(config.intervals):
        boundary = (interval_idx + 1) * config.telemetry_interval_s
        injected0, dropped0 = injected, dropped
        shaper = state.shaper
        qos = state.action is ControlAction.QOS_ADJUSTMENT
        queued = len(high) + len(low)  # so the check sees the hook's changes
        delivered_bits = 0.0
        delays_ms: list[float] = []
        append_delay = delays_ms.append
        occ_integral = 0.0

        while True:
            next_arrival = arrival_times[arrival_idx]
            if service_end <= next_arrival:  # a tie goes to the departure
                if service_end >= boundary:
                    break
                now = service_end
                occ_integral += queued * (now - last_occ_time)
                last_occ_time = now
                delivered += 1
                delivered_bits += size
                append_delay(fixed_ms + queued_ms + processing_ms)
                # a tie between the heads goes to high: schedule_arrivals
                # merges by (time, device), and the high-priority devices
                # have the lower indices, so of two packets enqueued at one
                # time the high one arrived first
                queue = high if high and (
                    qos or not low or high[0] <= low[0]) else low
                if queue:
                    queued_ms = (now - queue.popleft()) * 1000.0
                    service_end = now + service_s
                else:
                    service_end = inf
            else:
                if next_arrival >= boundary:
                    break
                now = next_arrival
                occ_integral += queued * (now - last_occ_time)
                last_occ_time = now
                if shaper is not None and not shaper.admit(now, size):
                    suppressed += 1
                else:
                    injected += 1
                    if service_end == inf:  # idle link, empty queues: serve
                        queued_ms = 0.0
                        service_end = now + service_s
                    elif queued < buffer_packets:
                        (high if is_high[arrival_idx] else low).append(now)
                    else:  # drop the arrival, or under QoS the newest low
                        dropped += 1
                        if qos and low and is_high[arrival_idx]:
                            low.pop()
                            high.append(now)
                arrival_idx += 1
            queued = len(high) + len(low)
            if injected != delivered + dropped + queued + (service_end < inf):
                violations += 1
        occ_integral += queued * (boundary - last_occ_time)
        last_occ_time = boundary

        stats = IntervalStats(
            index=interval_idx,
            injected=injected - injected0,
            dropped=dropped - dropped0,
            delivered_bits=delivered_bits,
            total_delays_ms=delays_ms,
            action_in_force=state.action,
        )
        occ_mean = occ_integral / config.telemetry_interval_s / config.buffer_packets
        occ_mean = min(1.0, max(0.0, occ_mean))
        record = TelemetryRecord(
            timestamp_s=boundary,
            throughput_kbps=delivered_bits / config.telemetry_interval_s
            / 1000.0,
            # np.mean's pairwise sum and division, without its dispatch
            delay_ms=float(np.add.reduce(np.array(delays_ms)))
            / len(delays_ms) if delays_ms else 0.0,
            packet_loss_rate=(stats.dropped / stats.injected)
            if stats.injected else 0.0,
            queue_occupancy=occ_mean,
            active_devices=config.device_count,
            label=label_congestion(occ_mean),
        )
        telemetry.append(record)
        interval_log.append(stats)

        if controller_hook is not None:
            apply_action(state, controller_hook(record), now=boundary)

    counters = {
        "injected": injected,
        "delivered": delivered,
        "dropped": dropped,
        "suppressed": suppressed,
        "queued": len(high) + len(low),
        "in_flight": int(service_end < inf),
        "conservation_violations": violations,
    }
    return SimResult(telemetry=telemetry, intervals=interval_log,
                     counters=counters)
