"""Repository benchmark: four seeded workloads through the serving stack.

Run from the repository root::

    python3 perfbench/run.py --workload serving --seed 1 --seconds 15 --trace 0

Workloads (``perfbench/workloads.py`` says why each exists): ``serving``,
``knn``, ``subsequence`` and ``fault_churn``.  The program is imported
from ``src/`` beside this directory; nothing is installed or built.

A run sets the stack up ``SETUP_REPEATS`` times (reporting the median
as ``setup_s``), repeats the workload's operation until ``--seconds``
of wall time have passed, then checks every answer against the software
reference distances.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` records spans around the calls into each layer and reports the
per-layer metrics instead.

Host times in the end-to-end metrics are calibrated CPU times: each
set-up and each operation is timed with ``time.process_time`` and
divided by the duration of a fixed calibration kernel timed just before
it, then multiplied by ``NOMINAL_KERNEL_S``.  On a shared machine whose
speed drifts between runs this cancels the drift while keeping any
change in the program's own cost; the figures read as milliseconds or
seconds on a machine where the kernel takes exactly 1 ms.  Per-layer
span times are raw wall-clock ``perf_counter`` milliseconds.
``virt_*`` metrics are the pool's modelled (virtual-time) request
latencies.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9

#: Calibrated host times read as if the calibration kernel took this.
NOMINAL_KERNEL_S = 1.0e-3

#: Calibration samples kept for the rolling median scale.
KERNEL_WINDOW = 5

END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "queries_per_s": "1/s",
    "virt_latency_us": "us",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import the workloads, which import ``repro`` from ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
    # Small arrays only: extra BLAS threads add noise, not speed.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import NullTracer, Tracer

    return workloads, Tracer, NullTracer


def calibration_kernel() -> float:
    """Fixed host work shaped like the program's: small numpy reductions
    interleaved with interpreter bookkeeping (about 1 ms on a 2.1 GHz
    Xeon)."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 64)
    starts = np.arange(0, 64, 8)
    total = 0.0
    table: dict = {}
    for i in range(150):
        total += float(np.minimum.reduceat(np.abs(a - i * 1e-3), starts).sum())
        for k in range(12):
            table[k] = table.get(k, 0.0) + k * total
    return total


def kernel_seconds() -> float:
    started = time.process_time()
    calibration_kernel()
    return time.process_time() - started


class Calibrator:
    """Rolling median of recent calibration-kernel durations."""

    def __init__(self) -> None:
        self.samples = [kernel_seconds() for _ in range(KERNEL_WINDOW)]

    def sample(self) -> None:
        self.samples.append(kernel_seconds())

    def scale(self, cpu_seconds: float) -> float:
        recent = statistics.median(self.samples[-KERNEL_WINDOW:])
        return cpu_seconds * NOMINAL_KERNEL_S / recent


def pool_counters(pool):
    """Cache and batcher counters of the live pool, plus each chip's
    graph-template counters keyed by chip (shards may be replaced)."""
    counters = pool.metrics.as_dict()["counters"]
    templates = {}
    for shard in pool.shards:
        info = shard.accelerator.template_cache_info()
        templates[id(shard.accelerator)] = (info["hits"], info["misses"])
    return {
        "cache_hits": pool.cache.hits,
        "cache_misses": pool.cache.misses,
        "batches": counters.get("batches", 0),
        "batched_requests": counters.get("batched_requests", 0),
        "templates": templates,
    }


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(op_times, setup_times, workload):
    import numpy as np

    ms = np.asarray(op_times) * 1e3
    return {
        "op_p50_ms": float(np.percentile(ms, 50)),
        "op_p90_ms": float(np.percentile(ms, 90)),
        "queries_per_s": workload.queries / float(np.sum(op_times)),
        "virt_latency_us": float(np.mean(workload.latencies)) * 1e6,
        "setup_s": statistics.median(setup_times),
    }


def per_layer(n_ops, tracer, workload, before, after):
    import numpy as np

    spans = tracer.summary()

    def per_op_ms(layer, key):
        return spans.get(layer, {}).get(key, 0.0) / n_ops * 1e3

    delta = {k: after[k] - before[k] for k in after if k != "templates"}
    for position, key in enumerate(("template_hits", "template_misses")):
        delta[key] = sum(
            counts[position] - before["templates"].get(chip, (0, 0))[position]
            for chip, counts in after["templates"].items()
        )
    return {
        "op_self_ms": (per_op_ms("op", "self_s"), "ms"),
        "pool_ms": (per_op_ms("pool", "total_s"), "ms"),
        "pool_self_ms": (per_op_ms("pool", "self_s"), "ms"),
        "accelerator_ms": (per_op_ms("accelerator", "total_s"), "ms"),
        "accelerator_calls": (
            spans.get("accelerator", {}).get("count", 0.0) / n_ops,
            "count",
        ),
        "mining_self_ms": (per_op_ms("mining", "self_s"), "ms"),
        "bist_ms": (per_op_ms("bist", "total_s"), "ms"),
        "cache_hit_rate": (
            ratio(delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]),
            "ratio",
        ),
        "batch_size_mean": (
            ratio(delta["batched_requests"], delta["batches"]),
            "count",
        ),
        "template_hit_rate": (
            ratio(
                delta["template_hits"],
                delta["template_hits"] + delta["template_misses"],
            ),
            "ratio",
        ),
        "virt_p99_us": (float(np.percentile(workload.latencies, 99)) * 1e6, "us"),
        "virt_wait_us": (float(np.mean(workload.waits)) * 1e6, "us"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, Tracer, NullTracer = load_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(
            f"perfbench: unknown workload {args.workload!r}; known: "
            + ", ".join(sorted(workloads.WORKLOADS))
        )
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    tracer = Tracer() if args.trace else NullTracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer)
    calibrator = Calibrator()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        calibrator.sample()
        started = time.process_time()
        workload.setup()
        setup_times.append(calibrator.scale(time.process_time() - started))
    workload.reset()

    before = pool_counters(workload.pool)
    op_times = []
    deadline = time.perf_counter() + args.seconds
    while True:
        tracer.op = len(op_times)
        calibrator.sample()
        started = time.process_time()
        with tracer.span("op"):
            workload.op()
        op_times.append(calibrator.scale(time.process_time() - started))
        if time.perf_counter() >= deadline:
            break
    after = pool_counters(workload.pool)

    attempted, failed = workload.check()
    if args.trace:
        metrics = per_layer(len(op_times), tracer, workload, before, after)
    else:
        values = end_to_end(op_times, setup_times, workload)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    print(
        json.dumps(
            {
                "correct": attempted >= 1 and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
