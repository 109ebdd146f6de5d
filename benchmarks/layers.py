"""Per-layer tracing: span wrappers around the public functions of each layer.

Each wrapper replaces a function on the module that calls it; `Patches` puts
the original back when the traced phase ends.  `training.forward_batch` is
replaced on `training`, which imports it by name; the other functions are
looked up through their own module at call time.  `control_step` and the lstm
controller's `stats.transform` are replaced on the instance.  Per-packet
functions such as `enqueue` are not wrapped: at ~37k calls per run the
wrapper would cost more than the work it times.

Counts cover the traced set-up and the first traced pass, so they repeat
exactly; times cover every traced span.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from congestionlab import (checkpoint, experiment, fls, metrics, nn, simulator,
                           training)

from spans import Patches, Spans

SIM_COUNTERS = ("injected", "delivered", "dropped", "suppressed",
                "conservation_violations")
ACTIONS = ("none", "traffic_shaping", "qos_adjustment")


class LayerTrace:
    def __init__(self):
        self.spans = Spans()
        self.counts: Counter = Counter()
        self.counting = True
        self.arrivals = 0               # over every traced simulator run
        self.grad_norms: list[float] = []
        self.decisions: dict[str, list[float]] = defaultdict(list)
        self.forward_shape = None
        self._last_action: dict[int, object] = {}

    def count(self, name: str, n: int = 1) -> None:
        if self.counting:
            self.counts[name] += n

    def _wrap(self, patches: Patches, module, attr: str, name: str,
              after=None) -> None:
        spans = self.spans

        def make(fn):
            def wrapper(*args, **kwargs):
                with spans.span(name):
                    out = fn(*args, **kwargs)
                if after is not None:
                    after(out, args, kwargs)
                return out
            return wrapper
        patches.wrap(module, attr, make)

    def install(self, patches: Patches) -> None:
        """Wrap every traced module-level function for one traced phase."""
        def after_run(result, args, kwargs):
            counters = result.counters
            self.arrivals += counters["injected"] + counters["suppressed"]
            for key in SIM_COUNTERS:
                self.count(f"simulator.{key}", counters[key])

        def after_clip(norm, args, kwargs):
            self.grad_norms.append(norm)

        def after_forward(out, args, kwargs):
            self.count("nn.forward_calls")

        wrap = self._wrap
        wrap(patches, simulator, "run", "simulator.run", after_run)
        wrap(patches, simulator, "schedule_arrivals",
             "simulator.schedule_arrivals")
        wrap(patches, experiment, "train_pipeline", "experiment.train_pipeline",
             lambda out, a, k: self.count("telemetry.windows", len(out.split)))
        wrap(patches, experiment, "run_experiment", "experiment.run_experiment")
        wrap(patches, training, "train", "training.train",
             lambda out, a, k: self.count("training.epochs",
                                          len(out[1].train_loss)))
        wrap(patches, training, "backward", "training.backward")
        wrap(patches, training, "clip_gradients", "training.clip_gradients",
             after_clip)
        wrap(patches, training, "adam_step", "training.adam_step",
             lambda out, a, k: self.count("training.batches"))
        wrap(patches, training, "batch_loss", "training.batch_loss")
        wrap(patches, training, "evaluate", "training.evaluate")
        wrap(patches, nn, "forward", "nn.forward", after_forward)
        wrap(patches, fls, "rsi", "fls.rsi")
        wrap(patches, fls, "trend", "fls.trend")
        wrap(patches, fls, "fls_score", "fls.fls_score")
        wrap(patches, metrics, "interval_metrics", "metrics.interval_metrics")
        wrap(patches, metrics, "aggregate", "metrics.aggregate")
        wrap(patches, checkpoint, "save_checkpoint", "checkpoint.save_checkpoint")
        wrap(patches, checkpoint, "load_checkpoint", "checkpoint.load_checkpoint")

        spans = self.spans

        def forward_batch(fn):
            def wrapper(model, inputs, *args, **kwargs):
                mode = "train" if kwargs.get("train") else "eval"
                with spans.span(f"nn.forward_batch.{mode}"):
                    out = fn(model, inputs, *args, **kwargs)
                if mode == "train" and self.forward_shape is None:
                    self.forward_shape = inputs.shape
                self.count("nn.forward_calls")
                return out
            return wrapper
        patches.wrap(training, "forward_batch", forward_batch)

    def watch_controller(self, patches: Patches, controller) -> None:
        """Wrap one controller's control_step (and the lstm's transform)."""
        predictor = controller.predictor_id
        spans = self.spans

        def control_step(step):
            def wrapper(record):
                with spans.span("controller.control_step") as span:
                    action = step(record)
                if predictor == "none" or controller.last_score is not None:
                    self.decisions[predictor].append(span.seconds)
                if predictor == "lstm":
                    self.count(f"controller.actions.{action}")
                    previous = self._last_action.get(id(controller))
                    if previous is not None and previous != action:
                        self.count("controller.action_changes")
                    self._last_action[id(controller)] = action
                return action
            return wrapper
        patches.wrap(controller, "control_step", control_step)
        if predictor == "lstm" and "transform" not in vars(controller.stats):
            def transform(fn):
                def wrapper(values):
                    with spans.span("telemetry.transform"):
                        return fn(values)
                return wrapper
            patches.wrap(controller.stats, "transform", transform)

    def metrics(self, model_config: nn.ModelConfig, clip_norm: float,
                extra: dict) -> dict[str, float]:
        """Per-layer metrics; a layer the run never entered reads 0."""
        spans, counts = self.spans, self.counts

        def median(values, scale):
            return statistics.median(values) * scale if values else 0.0

        def per(total, n, scale):
            return total / n * scale if n else 0.0

        out = {
            "simulator.arrivals_ms": spans.median("simulator.schedule_arrivals", 1e3),
            "simulator.loop_ns_per_packet": per(
                sum(spans.self_times("simulator.run")), self.arrivals, 1e9),
        }
        for key in SIM_COUNTERS:
            out[f"simulator.{key}"] = counts[f"simulator.{key}"]
        out["simulator.delivered_ratio"] = per(
            counts["simulator.delivered"], counts["simulator.injected"], 1.0)

        out["telemetry.prep_ms"] = median(
            spans.self_times("experiment.train_pipeline"), 1e3)
        out["telemetry.windows"] = counts["telemetry.windows"]
        out["telemetry.transform_us"] = spans.median("telemetry.transform", 1e6)

        batch_s = spans.median("nn.forward_batch.train")
        out["nn.forward_batch_ms"] = batch_s * 1e3
        out["nn.forward_us"] = spans.median("nn.forward", 1e6)
        out["nn.forward_calls"] = counts["nn.forward_calls"]
        flops = (forward_flops(model_config, *self.forward_shape[:2])
                 if self.forward_shape else 0)
        out["nn.forward_gflops"] = per(flops, batch_s, 1e-9)

        # train() computes the validation loss once per epoch
        epochs = len(spans.durations("training.batch_loss", "training.train"))
        out["training.backward_ms"] = spans.median("training.backward", 1e3)
        out["training.adam_ms"] = spans.median("training.adam_step", 1e3)
        out["training.clip_ms"] = spans.median("training.clip_gradients", 1e3)
        out["training.validation_ms"] = per(
            sum(spans.durations("training.batch_loss", "training.train"))
            + sum(spans.durations("training.evaluate", "training.train")),
            epochs, 1e3)
        out["training.other_ms"] = per(sum(spans.self_times("training.train")),
                                       epochs, 1e3)
        out["training.batches"] = counts["training.batches"]
        out["training.epochs"] = counts["training.epochs"]
        out["training.grad_norm_p50"] = median(self.grad_norms, 1.0)
        out["training.clipped_share"] = per(
            sum(1 for g in self.grad_norms if g > clip_norm),
            len(self.grad_norms), 1.0)

        for predictor in ("lstm", "fls", "none"):
            out[f"controller.decision_us.{predictor}"] = median(
                self.decisions[predictor], 1e6)
        for action in ACTIONS:
            out[f"controller.actions.{action}"] = counts[f"controller.actions.{action}"]
        out["controller.action_changes"] = counts["controller.action_changes"]
        out["controller.replay_mismatches"] = extra["replay_mismatches"]

        out["fls.score_us"] = spans.median("fls.fls_score", 1e6)
        out["fls.rsi_us"] = spans.median("fls.rsi", 1e6)
        out["fls.trend_us"] = spans.median("fls.trend", 1e6)

        out["metrics.interval_ms"] = per(
            sum(spans.durations("metrics.interval_metrics"))
            + sum(spans.durations("metrics.aggregate")),
            len(spans.durations("experiment.run_experiment")), 1e3)

        out["checkpoint.save_ms"] = spans.median("checkpoint.save_checkpoint", 1e3)
        out["checkpoint.load_ms"] = spans.median("checkpoint.load_checkpoint", 1e3)
        out["checkpoint.bytes"] = extra["checkpoint_bytes"]
        out["tracing.overhead"] = extra["overhead"]
        return out


def forward_flops(config: nn.ModelConfig, batch: int, steps: int) -> int:
    """Multiply-add FLOPs of the gate and head matmuls of one forward pass,
    computed from the shapes (elementwise work is not counted)."""
    hid = config.hidden_units
    gates = sum(2 * 4 * batch * steps * hid * (hid + config.layer_input_width(l))
                for l in range(config.num_layers))
    return gates + 2 * batch * hid * config.classes
