"""Discrete-event simulator: arrivals, queueing, delays, labels, actions."""

import bisect
import dataclasses
import itertools
import random
from collections import deque

import numpy as np
import pytest

from congestionlab import simulator, telemetry
from congestionlab.simulator import (ControlAction, DelayBreakdown,
                                     LoadScenario, SimConfig, SimState,
                                     SimulationError, TokenBucket,
                                     apply_action, label_congestion,
                                     run, schedule_arrivals)
from congestionlab.telemetry import CongestionLevel


class TestConfig:
    def test_scenario_multipliers(self):
        assert LoadScenario.LOW.load_multiplier == 0.4
        assert LoadScenario.MEDIUM.load_multiplier == 0.8
        assert LoadScenario.HIGH.load_multiplier == 1.25

    def test_int_in_float_field_stored_as_float(self):
        # so that 40 and 40.0 give one config_digest
        config = SimConfig(duration_s=40, load_multiplier=2)
        assert type(config.duration_s) is float
        assert type(config.load_multiplier) is float
        assert type(config.device_count) is int
        assert dataclasses.asdict(config) == dataclasses.asdict(
            SimConfig(duration_s=40.0, load_multiplier=2.0))

    def test_interval_must_divide_duration(self):
        with pytest.raises(SimulationError, match="divide"):
            SimConfig(duration_s=300.0, telemetry_interval_s=7.0)

    def test_per_device_rate(self):
        cfg = SimConfig(device_count=20, link_capacity_bps=100_000.0,
                        packet_size_bits=1000.0, scenario=LoadScenario.HIGH)
        # aggregate 1.25 * 100 pps over 20 devices
        assert cfg.per_device_rate_pps == pytest.approx(6.25)

    def test_load_multiplier_override(self):
        cfg = SimConfig(scenario=LoadScenario.LOW, load_multiplier=0.9)
        assert cfg.effective_load == 0.9

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(SimulationError):
            SimConfig(duration_s=0.0)
        with pytest.raises(SimulationError):
            SimConfig(buffer_packets=0)


def scalar_arrivals(config):
    """Reference for schedule_arrivals: each device adds one gap at a time
    and stops at the first time at or past duration_s."""
    rate = config.per_device_rate_pps
    arrivals = []
    if rate <= 0:
        return arrivals
    for device in range(config.device_count):
        rng = np.random.default_rng([config.seed, device])
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= config.duration_s:
                break
            arrivals.append((t, device))
    arrivals.sort()
    return arrivals


def arrival_pairs(config):
    """schedule_arrivals' (times, devices) arrays as (time, device) pairs."""
    times, devices = schedule_arrivals(config)
    assert times.dtype == float and devices.dtype == int
    return list(zip(times.tolist(), devices.tolist()))


def arrival_config(scenario, seed, device_count, duration_s):
    return SimConfig(duration_s=duration_s, telemetry_interval_s=duration_s,
                     device_count=device_count, scenario=scenario, seed=seed)


class TestArrivals:
    @pytest.mark.parametrize("scenario", list(LoadScenario))
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("device_count", [0, 1, 20])
    @pytest.mark.parametrize("duration_s", [60.0, 0.05])
    def test_matches_scalar_reference(self, scenario, seed, device_count,
                                      duration_s):
        cfg = arrival_config(scenario, seed, device_count, duration_s)
        assert arrival_pairs(cfg) == scalar_arrivals(cfg)

    def test_short_run_leaves_devices_silent(self):
        cfg = arrival_config(LoadScenario.LOW, 0, 20, 0.05)
        arrivals = arrival_pairs(cfg)
        assert 0 < len({device for _, device in arrivals}) < 20
        assert arrivals == scalar_arrivals(cfg)

    # 1e-9: each device first draws about its mean count and continues about
    # half the time; -1e9: one gap first, every later one a continuation
    @pytest.mark.parametrize("sigmas", [1e-9, -1e9])
    @pytest.mark.parametrize("scenario", list(LoadScenario))
    @pytest.mark.parametrize("seed", range(5))
    def test_short_overdraw_continues_stream(self, monkeypatch, sigmas,
                                             scenario, seed):
        monkeypatch.setattr(simulator, "ARRIVAL_OVERDRAW_SIGMAS", sigmas)
        cfg = arrival_config(scenario, seed, 20, 60.0)
        arrivals = arrival_pairs(cfg)
        assert len(arrivals) > cfg.device_count
        assert arrivals == scalar_arrivals(cfg)

    def test_zero_rate_no_arrivals(self):
        cfg = SimConfig(device_count=0, duration_s=10.0,
                        telemetry_interval_s=10.0)
        assert arrival_pairs(cfg) == []

    def test_same_seed_identical(self):
        cfg = SimConfig(duration_s=50.0, telemetry_interval_s=10.0, seed=7)
        assert arrival_pairs(cfg) == arrival_pairs(cfg)

    def test_sorted_in_time(self):
        cfg = SimConfig(duration_s=50.0, telemetry_interval_s=10.0, seed=3)
        times = [t for t, _ in arrival_pairs(cfg)]
        assert times == sorted(times)

    def test_poisson_count_concentration(self):
        # aggregate rate 80 pps over 100 s -> 8000 +- 4*sqrt(8000)
        cfg = SimConfig(duration_s=100.0, telemetry_interval_s=10.0,
                        scenario=LoadScenario.MEDIUM)
        hits = 0
        trials = 30
        expected = (cfg.per_device_rate_pps * cfg.device_count
                    * cfg.duration_s)
        band = 4.0 * np.sqrt(expected)
        for seed in range(trials):
            count = len(arrival_pairs(dataclasses.replace(cfg, seed=seed)))
            if abs(count - expected) <= band:
                hits += 1
        assert hits / trials >= 0.99

    def test_superposition_equivalence(self):
        # two devices at rate r vs one device at 2r: equal expected counts
        base = SimConfig(duration_s=200.0, telemetry_interval_s=10.0,
                         link_capacity_bps=100_000.0)
        two = dataclasses.replace(base, device_count=2, load_multiplier=0.1)
        one = dataclasses.replace(base, device_count=1, load_multiplier=0.1)
        counts_two = np.mean([
            len(arrival_pairs(dataclasses.replace(two, seed=s)))
            for s in range(40)])
        counts_one = np.mean([
            len(arrival_pairs(dataclasses.replace(one, seed=s + 1000)))
            for s in range(40)])
        expected = 0.1 * 100.0 * 200.0
        assert counts_two == pytest.approx(expected, rel=0.05)
        assert counts_one == pytest.approx(expected, rel=0.05)


def scripted_config(buffer_packets):
    """1 s service, 3 s intervals over 9 s; device 0 is the high class and
    device 1 the low one."""
    return SimConfig(duration_s=9.0, telemetry_interval_s=3.0, device_count=2,
                     priority_fraction=0.5, link_capacity_bps=1000.0,
                     packet_size_bits=1000.0, buffer_packets=buffer_packets,
                     load_multiplier=0.01)


def queueing_ms(result, config):
    """Each delivered packet's queueing delay, in delivery order."""
    fixed_ms = (config.propagation_ms + config.processing_ms
                + config.packet_size_bits / config.link_capacity_bps * 1000.0)
    return [delay - fixed_ms for iv in result.intervals
            for delay in iv.total_delays_ms]


class TestQueueOps:
    """run's admission rule, on scripted (time, device) arrivals; the first
    arrival finds the link idle and is served at once, the rest queue."""

    def scripted_run(self, monkeypatch, buffer_packets, times, devices,
                     schedule=None):
        cfg = scripted_config(buffer_packets)
        arrivals = (np.array(times), np.array(devices))
        monkeypatch.setattr(simulator, "schedule_arrivals",
                            lambda config: arrivals)
        result = assert_same_run(cfg, schedule)
        assert result.counters["conservation_violations"] == 0
        return result, queueing_ms(result, cfg)

    def test_empty_queue_accepts(self, monkeypatch):
        result, waits = self.scripted_run(monkeypatch, 2, [0.5, 0.6], [1, 1])
        assert result.counters["dropped"] == 0
        assert waits == pytest.approx([0.0, 900.0])

    def test_full_fifo_drops_arrival(self, monkeypatch):
        result, waits = self.scripted_run(monkeypatch, 1, [0.5, 0.6, 0.7],
                                          [1, 1, 0])
        assert result.intervals[0].dropped == 1
        assert waits == pytest.approx([0.0, 900.0])  # the high one is gone

    def test_priority_displacement(self, monkeypatch):
        # QoS is in force from the first boundary; three low arrivals fill
        # the link and the 2-packet buffer, then a high one arrives
        result, waits = self.scripted_run(
            monkeypatch, 2, [3.5, 3.6, 3.7, 3.8], [1, 1, 1, 0],
            ControlAction.QOS_ADJUSTMENT)
        assert result.intervals[1].dropped == 1
        # the high packet goes first, then the oldest low one: the newest
        # low one (3.7) was displaced
        assert waits == pytest.approx([0.0, 700.0, 1900.0])

    def test_priority_arrival_into_all_high_queue_drops(self, monkeypatch):
        result, waits = self.scripted_run(
            monkeypatch, 1, [3.5, 3.6, 3.7], [0, 0, 0],
            ControlAction.QOS_ADJUSTMENT)
        assert result.intervals[1].dropped == 1
        assert waits == pytest.approx([0.0, 900.0])


@dataclasses.dataclass(slots=True)
class Packet:
    """A queued packet of the reference loop, which keeps both classes in
    one FIFO queue."""
    enqueued_s: float
    priority: str = "low"            # "high" = delay-sensitive class
    service_start_s: float | None = None


def reference_enqueue(state, queue, packet):
    """Drop-tail admission into the one queue; under QoS a high-priority
    arrival at a full buffer displaces the newest low-priority packet.
    Returns the number of packets dropped: 1 at a full buffer (the arrival
    or the packet it displaced), else 0."""
    if len(queue) < state.config.buffer_packets:
        queue.append(packet)
        return 0
    if (state.action is ControlAction.QOS_ADJUSTMENT
            and packet.priority == "high"):
        for pos in range(len(queue) - 1, -1, -1):
            if queue[pos].priority == "low":
                del queue[pos]
                queue.append(packet)
                break
    return 1


def reference_next_to_serve(state, queue):
    """The oldest packet, or under QoS the oldest high-priority one."""
    if state.action is ControlAction.QOS_ADJUSTMENT:
        for pos in range(len(queue)):
            if queue[pos].priority == "high":
                packet = queue[pos]
                del queue[pos]
                return packet
    return queue.popleft()


def compute_packet_delay(packet, config):
    """Reference for run's inline delay: the four-component decomposition
    of a packet that entered service."""
    if packet.service_start_s is None:
        raise SimulationError("delay is only defined for packets that "
                              "entered service")
    return DelayBreakdown(
        propagation_ms=config.propagation_ms,
        transmission_ms=config.packet_size_bits / config.link_capacity_bps
        * 1000.0,
        queueing_ms=(packet.service_start_s - packet.enqueued_s) * 1000.0,
        processing_ms=config.processing_ms,
    )


class TestDelayAndLabels:
    def test_delay_component_sum(self):
        cfg = SimConfig(propagation_ms=2.0, processing_ms=1.0,
                        link_capacity_bps=1_000_000.0, packet_size_bits=3000.0)
        pkt = Packet(enqueued_s=0.0, service_start_s=0.005)
        bd = compute_packet_delay(pkt, cfg)
        assert bd.propagation_ms == 2.0
        assert bd.transmission_ms == pytest.approx(3.0)
        assert bd.queueing_ms == pytest.approx(5.0)
        assert bd.processing_ms == 1.0

    def test_transmission_time_1000_bits_on_1mbps(self):
        cfg = SimConfig(link_capacity_bps=1_000_000.0)
        pkt = Packet(enqueued_s=0.0, service_start_s=0.0)
        assert compute_packet_delay(pkt, cfg).transmission_ms \
            == pytest.approx(1.0)

    def test_immediate_service_zero_queueing(self):
        cfg = SimConfig()
        pkt = Packet(enqueued_s=1.0, service_start_s=1.0)
        assert compute_packet_delay(pkt, cfg).queueing_ms == 0.0

    def test_delay_undefined_for_dropped(self):
        # a dropped packet never enters service
        pkt = Packet(enqueued_s=0.0)
        with pytest.raises(SimulationError):
            compute_packet_delay(pkt, SimConfig())

    def test_labels_at_thresholds(self):
        assert label_congestion(0.0) == CongestionLevel.LOW
        assert label_congestion(0.39999) == CongestionLevel.LOW
        assert label_congestion(0.4) == CongestionLevel.MEDIUM
        assert label_congestion(0.69999) == CongestionLevel.MEDIUM
        assert label_congestion(0.7) == CongestionLevel.HIGH
        assert label_congestion(0.95) == CongestionLevel.HIGH
        with pytest.raises(SimulationError):
            label_congestion(1.5)


class TestTokenBucket:
    def test_admits_until_empty_then_refills(self):
        bucket = TokenBucket(rate_bps=1000.0, depth_bits=2000.0,
                             tokens=2000.0, last_refill_s=0.0)
        assert bucket.admit(0.0, 1000.0)
        assert bucket.admit(0.0, 1000.0)
        assert not bucket.admit(0.0, 1000.0)
        # after one second, 1000 bits of tokens have accrued
        assert bucket.admit(1.0, 1000.0)
        assert not bucket.admit(1.0, 1.0)

    def test_depth_caps_accrual(self):
        bucket = TokenBucket(rate_bps=1000.0, depth_bits=1500.0,
                             tokens=0.0, last_refill_s=0.0)
        assert bucket.admit(100.0, 1500.0)   # capped at depth, not 100k bits
        assert not bucket.admit(100.0, 1.0)


class TestActions:
    def test_none_restores_fifo(self):
        state = SimState(config=SimConfig())
        assert state.action is ControlAction.NONE
        apply_action(state, ControlAction.QOS_ADJUSTMENT)
        apply_action(state, ControlAction.NONE)
        assert state.action is ControlAction.NONE
        assert state.shaper is None
        # idempotent
        apply_action(state, ControlAction.NONE)
        assert state.action is ControlAction.NONE

    def test_shaping_installs_bucket_once(self):
        state = SimState(config=SimConfig())
        apply_action(state, ControlAction.TRAFFIC_SHAPING, now=5.0)
        bucket = state.shaper
        assert bucket is not None
        assert bucket.rate_bps == pytest.approx(0.8 * 100_000.0)
        apply_action(state, ControlAction.TRAFFIC_SHAPING, now=6.0)
        assert state.shaper is bucket
        assert state.action is ControlAction.TRAFFIC_SHAPING

    def test_qos_switches_discipline(self):
        state = SimState(config=SimConfig())
        apply_action(state, ControlAction.TRAFFIC_SHAPING)
        apply_action(state, ControlAction.QOS_ADJUSTMENT)
        assert state.action is ControlAction.QOS_ADJUSTMENT
        assert state.shaper is None

    @pytest.mark.parametrize("action", [None, "traffic_shaping", 7])
    def test_non_action_refused_before_any_change(self, action):
        state = SimState(config=SimConfig())
        apply_action(state, ControlAction.TRAFFIC_SHAPING, now=5.0)
        bucket = state.shaper
        with pytest.raises(SimulationError, match="unknown action"):
            apply_action(state, action)
        assert state.action is ControlAction.TRAFFIC_SHAPING
        assert state.shaper is bucket


def reference_run(config, controller_hook=None):
    """Reference for run: the event loop that takes the earliest of the next
    arrival, the service end and the interval boundary, then starts a service
    whenever the link is idle and the queue is not.  Both classes share one
    queue of `Packet`s."""
    times, devices = simulator.schedule_arrivals(config)
    high_priority_devices = int(round(config.priority_fraction
                                      * config.device_count))
    inf = float("inf")
    arrival_times = times.tolist() + [inf]
    is_high = (devices < high_priority_devices).astype(int)
    priorities = np.array(["low", "high"], dtype=object)[is_high].tolist()
    size = config.packet_size_bits
    service_s = size / config.link_capacity_bps
    fixed_ms = config.propagation_ms + service_s * 1000.0
    state = SimState(config=config)
    queue = deque()
    telemetry_log, interval_log = [], []
    injected = delivered = dropped = suppressed = violations = 0
    in_service = None
    last_occ_time = 0.0
    arrival_idx = 0
    service_end = inf
    current_action = ControlAction.NONE
    for interval_idx in range(config.intervals):
        boundary = (interval_idx + 1) * config.telemetry_interval_s
        injected0, dropped0 = injected, dropped
        shaper = state.shaper
        delivered_bits = 0.0
        delays_ms = []
        occ_integral = 0.0
        while True:
            next_arrival = arrival_times[arrival_idx]
            now = min(next_arrival, service_end, boundary)
            occ_integral += len(queue) * (now - last_occ_time)
            last_occ_time = now
            if now >= boundary:
                break
            if service_end <= next_arrival:
                delivered += 1
                delivered_bits += size
                delays_ms.append(fixed_ms + (in_service.service_start_s
                                             - in_service.enqueued_s) * 1000.0
                                 + config.processing_ms)
                in_service = None
                service_end = inf
            else:
                if shaper is not None and not shaper.admit(now, size):
                    suppressed += 1
                else:
                    injected += 1
                    dropped += reference_enqueue(state, queue, Packet(
                        next_arrival, priorities[arrival_idx]))
                arrival_idx += 1
            if in_service is None and queue:
                in_service = reference_next_to_serve(state, queue)
                in_service.service_start_s = now
                service_end = now + service_s
            if injected != (delivered + dropped + len(queue)
                            + (in_service is not None)):
                violations += 1
        stats = simulator.IntervalStats(
            index=interval_idx, injected=injected - injected0,
            dropped=dropped - dropped0, delivered_bits=delivered_bits,
            total_delays_ms=delays_ms, action_in_force=current_action)
        occ_mean = occ_integral / config.telemetry_interval_s \
            / config.buffer_packets
        occ_mean = min(1.0, max(0.0, occ_mean))
        record = telemetry.TelemetryRecord(
            timestamp_s=boundary,
            throughput_kbps=delivered_bits / config.telemetry_interval_s
            / 1000.0,
            delay_ms=float(np.mean(delays_ms)) if delays_ms else 0.0,
            packet_loss_rate=(stats.dropped / stats.injected)
            if stats.injected else 0.0,
            queue_occupancy=occ_mean,
            active_devices=config.device_count,
            label=label_congestion(occ_mean))
        telemetry_log.append(record)
        interval_log.append(stats)
        if controller_hook is not None:
            action = controller_hook(record)
            if action != current_action:
                apply_action(state, action, now=boundary)
                current_action = action
    counters = {
        "injected": injected, "delivered": delivered,
        "dropped": dropped, "suppressed": suppressed,
        "queued": len(queue), "in_flight": int(in_service is not None),
        "conservation_violations": violations}
    return simulator.SimResult(telemetry=telemetry_log,
                               intervals=interval_log, counters=counters)


def schedule_hook(schedule):
    """A fresh controller hook for one run: None, a fixed action, or (for
    an int) actions drawn from a generator seeded with it."""
    if schedule is None:
        return None
    if isinstance(schedule, ControlAction):
        return lambda record: schedule
    rng = random.Random(schedule)
    return lambda record: rng.choice(list(ControlAction))


def assert_same_run(config, schedule=None):
    expected = reference_run(config, schedule_hook(schedule))
    result = run(config, schedule_hook(schedule))
    assert result.telemetry == expected.telemetry
    assert result.intervals == expected.intervals
    assert result.counters == expected.counters
    return result


def scripted_five_packet_loss():
    """Hand-counted oracle: buffer 2, 5 back-to-back arrivals, slow link.

    Link 1000 bps, packets 1000 bits (1 s service), arrivals all within the
    first 0.05 s.  Timeline: p0 enters service, p1/p2 queue, p3/p4 find the
    buffer full -> exactly 2 drops of 5 injected.
    """
    cfg = SimConfig(duration_s=10.0, device_count=5,
                    link_capacity_bps=1000.0, packet_size_bits=1000.0,
                    buffer_packets=2, telemetry_interval_s=10.0,
                    load_multiplier=0.01, seed=123)
    arrivals = (0.01 * np.arange(1, 6), np.arange(5))
    return cfg, arrivals


def reference_cases():
    """test_matches_reference_loop's inputs: (schedule, interval_s,
    buffer_packets, scenario, shape), where shape may set priority_fraction
    (0.2 by default) or put every arrival time on a grid of grid_s."""
    for schedule, interval_s, buffer_packets, scenario in itertools.product(
            [None, ControlAction.TRAFFIC_SHAPING, ControlAction.QOS_ADJUSTMENT,
             7], [1.0, 10.0], [1, 5], list(LoadScenario)):
        yield pytest.param(schedule, interval_s, buffer_packets, scenario, {},
                           id=f"{schedule}-{interval_s}-{buffer_packets}-"
                              f"{scenario}")
    # random actions switch QoS -> FIFO while both classes hold packets, so
    # service compares the two heads; one class alone leaves one FIFO empty.
    # On a 10 ms grid high and low packets share enqueue times, and a full
    # 50-packet buffer holds such a pair across a FIFO -> QoS switch, where
    # the tie rule decides which of the two is left
    for shape, buffer_packets in [
            ({"priority_fraction": 0.0}, 1), ({"priority_fraction": 0.0}, 3),
            ({"priority_fraction": 1.0}, 1), ({"priority_fraction": 1.0}, 3),
            ({"grid_s": 0.01}, 3), ({"grid_s": 0.01}, 50),
            ({"grid_s": 0.01, "priority_fraction": 0.5}, 50)]:
        name = "-".join(f"{key}={value}" for key, value in shape.items())
        yield pytest.param(11, 1.0, buffer_packets, LoadScenario.HIGH, shape,
                           id=f"11-1.0-{buffer_packets}-{name}")


class TestRun:
    def test_scripted_loss_oracle(self, monkeypatch):
        cfg, arrivals = scripted_five_packet_loss()
        monkeypatch.setattr(simulator, "schedule_arrivals",
                            lambda *a, **k: arrivals)
        result = run(cfg)
        assert result.counters["injected"] == 5
        assert result.counters["dropped"] == 2
        assert result.telemetry[0].packet_loss_rate == pytest.approx(2 / 5)

    @pytest.mark.parametrize(
        "schedule, interval_s, buffer_packets, scenario, shape",
        reference_cases())
    def test_matches_reference_loop(self, monkeypatch, schedule, interval_s,
                                    buffer_packets, scenario, shape):
        cfg = SimConfig(duration_s=60.0, telemetry_interval_s=interval_s,
                        scenario=scenario, buffer_packets=buffer_packets,
                        seed=buffer_packets + int(interval_s),
                        priority_fraction=shape.get("priority_fraction", 0.2))
        if "grid_s" in shape:
            times, devices = schedule_arrivals(cfg)
            times = np.floor(times / shape["grid_s"]) * shape["grid_s"]
            order = np.lexsort((devices, times))
            monkeypatch.setattr(simulator, "schedule_arrivals", lambda config:
                                (times[order], devices[order]))
        result = assert_same_run(cfg, schedule)
        assert result.counters["conservation_violations"] == 0

    def test_ties_on_service_end_and_boundary(self, monkeypatch):
        # 1 s service, buffer 1, 3 s intervals: p0 is served 0.5-1.5 and p1
        # waits; p2 lands on p0's service end, which departs first so that
        # p1 enters service and p2 finds room in the buffer; p3 lands on
        # the first boundary and counts in the second interval
        cfg = SimConfig(duration_s=6.0, telemetry_interval_s=3.0,
                        device_count=4, link_capacity_bps=1000.0,
                        packet_size_bits=1000.0, buffer_packets=1,
                        load_multiplier=0.01)
        arrivals = (np.array([0.5, 0.6, 1.5, 3.0]), np.arange(4))
        monkeypatch.setattr(simulator, "schedule_arrivals",
                            lambda config: arrivals)
        result = assert_same_run(cfg)
        assert [(iv.injected, iv.dropped, len(iv.total_delays_ms))
                for iv in result.intervals] == [(3, 0, 2), (1, 0, 2)]
        assert result.counters["conservation_violations"] == 0

    def test_check_sees_a_change_between_events(self, monkeypatch):
        # a phantom packet pushed into `low` at the first boundary, outside
        # any event: the next interval's occupancy counts it from 3.0 until
        # the departure at 5.0 serves it, and the check after each event of
        # that interval counts one packet more than were injected
        cfg = scripted_config(2)
        arrivals = (np.array([4.0]), np.array([1]))
        monkeypatch.setattr(simulator, "schedule_arrivals",
                            lambda config: arrivals)
        apply = simulator.apply_action

        def apply_with_phantom(state, action, now=0.0):
            apply(state, action, now)
            if now == 3.0:
                state.low.append(now)

        monkeypatch.setattr(simulator, "apply_action", apply_with_phantom)
        result = run(cfg, schedule_hook(ControlAction.NONE))
        assert result.counters["conservation_violations"] > 0
        assert [rec.queue_occupancy for rec in result.telemetry] \
            == pytest.approx([0.0, 2.0 / 3.0 / 2, 0.0])

    def test_zero_load_empty_features(self):
        cfg = SimConfig(duration_s=30.0, device_count=0,
                        telemetry_interval_s=10.0)
        result = run(cfg)
        assert result.counters["injected"] == 0
        for rec in result.telemetry:
            assert rec.throughput_kbps == 0.0
            assert rec.packet_loss_rate == 0.0
            assert rec.delay_ms == 0.0
            assert rec.active_devices == 0

    def test_half_load_low_loss(self):
        # offered load 0.5x capacity with a large buffer: an M/M/1-style
        # system at rho=0.5 with K=200 has blocking ~rho^K, effectively 0
        cfg = SimConfig(duration_s=300.0, load_multiplier=0.5,
                        buffer_packets=200, seed=1)
        result = run(cfg)
        loss = result.counters["dropped"] / result.counters["injected"]
        assert loss < 0.01

    def test_overload_sustained_drops(self):
        cfg = SimConfig(duration_s=300.0, scenario=LoadScenario.HIGH, seed=2)
        result = run(cfg)
        loss = result.counters["dropped"] / result.counters["injected"]
        # fluid limit: loss -> 1 - 1/rho = 0.2 under sustained 1.25x load
        assert loss > 0.1
        # queueing = total delay minus the three fixed components
        fixed_ms = (cfg.propagation_ms + cfg.processing_ms
                    + cfg.packet_size_bits / cfg.link_capacity_bps * 1000.0)
        mean_queueing = np.mean([rec.delay_ms - fixed_ms
                                 for rec in result.telemetry
                                 if rec.throughput_kbps > 0])
        assert mean_queueing > 10.0 * cfg.propagation_ms

    def test_monotone_load_response(self):
        base = SimConfig(duration_s=300.0, seed=5)
        med = run(dataclasses.replace(base, scenario=LoadScenario.MEDIUM))
        high = run(dataclasses.replace(base, scenario=LoadScenario.HIGH))
        assert high.counters["dropped"] >= med.counters["dropped"]

    def test_conservation_and_determinism(self):
        for seed in range(3):
            cfg = SimConfig(duration_s=100.0, scenario=LoadScenario.HIGH,
                            seed=seed)
            a = run(cfg)
            b = run(cfg)
            assert a.counters["conservation_violations"] == 0
            assert a.counters == b.counters
            assert a.telemetry == b.telemetry

    def test_interval_count_and_timestamps(self):
        cfg = SimConfig(duration_s=300.0, telemetry_interval_s=10.0)
        result = run(cfg)
        assert len(result.telemetry) == 30
        assert [r.timestamp_s for r in result.telemetry] == \
            [10.0 * (k + 1) for k in range(30)]

    def test_shaping_caps_admission_rate(self):
        cfg = SimConfig(duration_s=100.0, scenario=LoadScenario.HIGH, seed=3)
        hook_calls = []

        def always_shape(record):
            hook_calls.append(record)
            return ControlAction.TRAFFIC_SHAPING

        result = run(cfg, controller_hook=always_shape)
        # once shaping is in force, admitted bits per interval stay within
        # the token-bucket envelope: rate*interval + bucket depth
        envelope = (cfg.shaping_fraction * cfg.link_capacity_bps
                    * cfg.telemetry_interval_s + 2.0 * cfg.packet_size_bits)
        shaped = [iv for iv in result.intervals
                  if iv.action_in_force == ControlAction.TRAFFIC_SHAPING]
        assert shaped
        for iv in shaped:
            assert iv.injected * cfg.packet_size_bits <= envelope + 1e-6
        assert result.counters["suppressed"] > 0

    def test_qos_prioritizes_high_class_delay(self, monkeypatch):
        cfg = SimConfig(duration_s=100.0, scenario=LoadScenario.HIGH, seed=4)
        created = []
        packet_type = Packet

        def recording_packet(*args):
            packet = packet_type(*args)
            created.append(packet)
            return packet

        # every packet the reference loop queues, each with its class; run
        # keeps no per-packet record, and its delays must be the same ones
        monkeypatch.setitem(globals(), "Packet", recording_packet)
        hook = schedule_hook(ControlAction.QOS_ADJUSTMENT)
        reference_run(cfg, controller_hook=hook)
        result = run(cfg, controller_hook=hook)
        served = [p for p in created if p.service_start_s is not None]
        # recompute each served packet's delay through DelayBreakdown and
        # file it under the interval its service ended in (the first
        # boundary past the end; the packet still in flight has none)
        boundaries = [rec.timestamp_s for rec in result.telemetry]
        service_s = cfg.packet_size_bits / cfg.link_capacity_bps
        per_interval = [{"high": [], "low": []} for _ in boundaries]
        for packet in served:
            k = bisect.bisect_right(boundaries,
                                    packet.service_start_s + service_s)
            if k < len(boundaries):
                per_interval[k][packet.priority].append(simulator.total_delay(
                    compute_packet_delay(packet, cfg)))
        qos_intervals = []
        for stats, delays in zip(result.intervals, per_interval):
            # the inline delay and the DelayBreakdown sum agree bit for bit
            assert sorted(delays["high"] + delays["low"]) \
                == sorted(stats.total_delays_ms)
            if stats.action_in_force == ControlAction.QOS_ADJUSTMENT \
                    and delays["high"] and delays["low"]:
                qos_intervals.append(delays)
        assert len(qos_intervals) == len(boundaries) - 1
        for delays in qos_intervals:
            assert np.mean(delays["high"]) <= np.mean(delays["low"])

    def test_run_looks_up_module_seams(self, monkeypatch):
        # the benchmark times schedule_arrivals and clocks each interval by
        # wrapping these module attributes
        cfg = SimConfig(duration_s=50.0, scenario=LoadScenario.HIGH, seed=2)
        schedule, label = simulator.schedule_arrivals, simulator.label_congestion
        scheduled, labelled = [], []
        monkeypatch.setattr(simulator, "schedule_arrivals",
                            lambda config: scheduled.append(config)
                            or schedule(config))
        monkeypatch.setattr(simulator, "label_congestion",
                            lambda occupancy: labelled.append(occupancy)
                            or label(occupancy))
        result = run(cfg)
        assert scheduled == [cfg]
        assert labelled == [rec.queue_occupancy for rec in result.telemetry]

    def test_hook_action_applied_next_interval(self):
        cfg = SimConfig(duration_s=30.0, scenario=LoadScenario.HIGH, seed=6)
        actions = iter([ControlAction.TRAFFIC_SHAPING, ControlAction.NONE,
                        ControlAction.NONE])
        result = run(cfg, controller_hook=lambda rec: next(actions))
        assert result.intervals[0].action_in_force == ControlAction.NONE
        assert result.intervals[1].action_in_force \
            == ControlAction.TRAFFIC_SHAPING
        assert result.intervals[2].action_in_force == ControlAction.NONE

    def test_hook_returning_none_is_refused(self):
        cfg = SimConfig(duration_s=30.0, scenario=LoadScenario.HIGH, seed=6)
        with pytest.raises(SimulationError, match="unknown action None"):
            run(cfg, controller_hook=lambda record: None)

    def test_interval_counts_sum_to_run_counters(self):
        cfg = SimConfig(duration_s=90.0, scenario=LoadScenario.HIGH, seed=7)
        # intervals run under NONE, TRAFFIC_SHAPING, QOS_ADJUSTMENT, NONE, ...
        cycle = [ControlAction.TRAFFIC_SHAPING, ControlAction.QOS_ADJUSTMENT,
                 ControlAction.NONE]
        actions = itertools.cycle(cycle)
        result = run(cfg, controller_hook=lambda record: next(actions))
        assert [iv.action_in_force for iv in result.intervals[:4]] \
            == [ControlAction.NONE] + cycle
        counters = result.counters
        for key in ("injected", "dropped"):
            assert sum(getattr(iv, key) for iv in result.intervals) \
                == counters[key]
        # an interval records one delay per packet it delivered
        assert sum(len(iv.total_delays_ms) for iv in result.intervals) \
            == counters["delivered"]
        assert counters["suppressed"] > 0
        assert counters["injected"] == (counters["delivered"]
                                        + counters["dropped"]
                                        + counters["queued"]
                                        + counters["in_flight"])
