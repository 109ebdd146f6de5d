"""Walk through the gateway simulator under the three load tiers.

Runs the uncontrolled simulator for each scenario, prints per-interval
telemetry for the High tier, and summarizes loss/delay/throughput so you
can see why 1.25x offered load needs a controller.

Usage: python demos/simulate_scenarios.py
"""

import dataclasses

import numpy as np

from congestionlab.simulator import LoadScenario, SimConfig, run

base = SimConfig(duration_s=120.0, telemetry_interval_s=10.0, seed=7)

print(f"{'scenario':<10} {'load':>5} {'loss':>8} {'delay_ms':>10} "
      f"{'kbps':>8} {'label mix'}")
for scenario in LoadScenario:
    cfg = dataclasses.replace(base, scenario=scenario)
    result = run(cfg)
    loss = result.counters["dropped"] / max(result.counters["injected"], 1)
    delays = [r.delay_ms for r in result.telemetry if r.throughput_kbps > 0]
    kbps = np.mean([r.throughput_kbps for r in result.telemetry])
    labels = {}
    for rec in result.telemetry:
        labels[str(rec.label)] = labels.get(str(rec.label), 0) + 1
    print(f"{scenario.value:<10} {cfg.effective_load:>5.2f} {loss:>8.4f} "
          f"{np.mean(delays) if delays else 0.0:>10.1f} {kbps:>8.1f} "
          f"{labels}")

print("\nHigh-tier interval detail:")
cfg = dataclasses.replace(base, scenario=LoadScenario.HIGH)
result = run(cfg)
print(f"{'t_s':>6} {'occupancy':>10} {'loss':>7} {'delay_ms':>9} {'label':>7}")
for rec in result.telemetry:
    print(f"{rec.timestamp_s:>6.0f} {rec.queue_occupancy:>10.3f} "
          f"{rec.packet_loss_rate:>7.3f} {rec.delay_ms:>9.1f} "
          f"{str(rec.label):>7}")

print("\nconservation check:", result.counters["conservation_violations"],
      "violations")
