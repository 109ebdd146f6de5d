"""congestionlab: a desk-scale IoT congestion-control laboratory.

Simulate an IoT gateway under load, train a stacked LSTM (built from
scratch in numpy) to classify congestion from windowed telemetry, close the
loop with threshold-driven traffic shaping / QoS actions, and benchmark
against a fuzzy-logic baseline.
"""

from .telemetry import (CongestionLevel, DatasetSplit, NormalizationStats,
                        SampleSet, SequenceSample, TelemetryRecord)
from .controller import PolicyConfig, congestion_score, decide
from .nn import ModelConfig, forward, init_parameters
from .simulator import ControlAction, LoadScenario, SimConfig
from .training import TrainingConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "CongestionLevel", "ControlAction", "DatasetSplit", "LoadScenario",
    "ModelConfig", "NormalizationStats", "PolicyConfig", "SampleSet",
    "SequenceSample", "SimConfig", "TelemetryRecord", "TrainingConfig",
    "congestion_score", "decide", "evaluate", "forward", "init_parameters",
    "train",
]
