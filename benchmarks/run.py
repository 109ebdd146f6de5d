"""congestionlab benchmark.

    python3 benchmarks/run.py --workload train --seed 0 --seconds 10 --trace 0

Runs one workload (see workloads.py) on the package under ../src, checks its
outputs and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics.  The line before
it is a JSON record of the environment, seeds, sample counts and seeded-output
digests.  --seed n shifts the acceptance-gate seeds (123, 11, 999) by n.
Exits 1 if any output check fails and 2 if the package or BENCHMARK.json is
missing.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()

# one BLAS/OpenMP thread, set before numpy is first imported: the machine has
# two cores and a threaded BLAS would measure the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    pass


def import_package():
    """Import congestionlab from this checkout's src/ and nowhere else."""
    if not (SRC / "congestionlab" / "__init__.py").is_file():
        raise SetupError(f"no congestionlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import congestionlab
    if Path(congestionlab.__file__).resolve().parent != SRC / "congestionlab":
        raise SetupError(f"congestionlab imported from {congestionlab.__file__}")
    return congestionlab


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} not found")
    return json.loads(path.read_text())


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(numpy, seeds: dict) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seeds": seeds,
    }


def with_units(values: dict, declared: list[dict]) -> dict:
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise SetupError(f"metrics {sorted(values)} != declared {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report line)."""
    spec = load_spec()
    import_package()
    import numpy

    import pipeline as pl
    import workloads
    from congestionlab.training import TrainingDivergedError

    import_s = time.perf_counter() - START
    seeds = pl.workload_seeds(seed)
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    ctx = workloads.Context(sizes or pl.Sizes(), seeds, seconds, trace, workdir)
    ctx.report.update(workload=workload, trace=trace,
                      environment=environment(numpy, seeds))
    try:
        values = workloads.WORKLOADS[workload](ctx)
    except TrainingDivergedError as exc:
        ctx.ledger.check(False, f"training diverged: {exc}")
        values = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    metrics = {}
    if values is not None:
        if trace:
            metrics = with_units(values, spec["per_layer"])
        else:
            values["setup_s"] += import_s
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = with_units(values, spec["end_to_end"])
    ctx.report["failures"] = ctx.ledger.failures
    ctx.report["import_s"] = import_s
    result = {"correct": ctx.ledger.failed == 0,
              "attempted": ctx.ledger.attempted,
              "failed": ctx.ledger.failed,
              "metrics": metrics}
    return result, ctx.report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "closed_loop"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result, report = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in report["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
