"""Standalone engine benchmark harness.

Thin wrapper over ``repro.eval.bench.run_engine_bench`` for running
outside the CLI (CI calls ``repro bench --smoke``; this script is the
same measurement for local profiling sessions)::

    PYTHONPATH=src python benchmarks/bench_engine.py [--smoke]
        [--repeats N] [--seed S] [--out BENCH_engine.json]

Exits non-zero when the template-cached levelized path is not the
stock accelerator's default, the fast and seed engines disagree
bit-for-bit, or a case falls below its ``SPEEDUP_FLOOR`` — the same
gate the CLI applies.
"""

from __future__ import annotations

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
