"""Train a small congestion classifier end to end, then inspect it.

Generates a compact telemetry corpus (short runs keep the startup ramp —
the only place where the queue transitions between regimes — well
represented), trains a reduced 2x16 network for speed, reports held-out
accuracy against the majority-class baseline, and round-trips the model
through a checkpoint file.

Usage: python demos/train_small_model.py
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np

from congestionlab import checkpoint, experiment, training
from congestionlab.nn import ModelConfig
from congestionlab.simulator import LoadScenario, SimConfig

base = SimConfig(duration_s=110.0, telemetry_interval_s=1.0, seed=0)
series_list = []
for scenario in LoadScenario:
    for k in range(3):
        cfg = dataclasses.replace(
            base, scenario=scenario,
            seed=experiment.derive_seed(123, f"gen/{scenario.value}/{k}"))
        series_list.append(experiment.generate_telemetry(cfg))
print(f"generated {len(series_list)} telemetry series, "
      f"{sum(len(s) for s in series_list)} records")

model_config = ModelConfig(hidden_units=16)
training_config = training.TrainingConfig(max_epochs=15, patience=5, seed=11)
trained = experiment.train_pipeline(series_list, model_config,
                                    training_config)

result = training.evaluate(trained.model, trained.split.test)
labels = trained.split.test.targets.argmax(axis=1)
majority = np.bincount(labels, minlength=3).max() / len(labels)
print(f"stopped at epoch {trained.report.stopping_epoch} "
      f"(best {trained.report.best_epoch})")
print(f"test accuracy {result.accuracy:.4f} vs majority {majority:.4f}")
print("confusion (rows true, cols predicted):")
print(result.confusion)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "checkpoint.txt"
    checkpoint.save_checkpoint(path, trained.model, trained.stats)
    loaded, _ = checkpoint.load_checkpoint(path)
    again = training.evaluate(loaded, trained.split.test)
    print(f"checkpoint round-trip accuracy {again.accuracy:.4f} "
          f"({path.stat().st_size / 1024:.0f} KiB on disk)")
