"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``compute``   one distance on software + accelerator
``fig5``      convergence time / relative error sweep
``fig6a``     per-element speedup vs existing works
``fig6b``     runtime / speedup vs the CPU model
``power``     Section 4.3 power & energy table
``report``    everything above in one run
``datasets``  list the available synthetic datasets
``serve-bench``  replay a mixed query stream through the pool
``bench``     engine benchmark: vectorized execution engine vs the
              seed engine (Jacobi sweeps, per-query graph rebuilds),
              emitting ``BENCH_engine.json`` (``--smoke``:
              ``BENCH_smoke.json``)
``faults``    fault-injection campaign: inject → BIST → repair →
              re-serve, reporting detection/repair rates and the
              served-accuracy curve
``chaos``     resilience chaos harness: seeded failure scenarios
              (shard death, drift storm, saturation, cache storm,
              flapping) gated on availability / latency / accuracy
              SLOs — exits non-zero on any violation
``check``     static electrical rule checks (netlists, block graphs,
              PE configurations) — exits non-zero on any error
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _add_compute(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "compute", help="one distance, software vs accelerator"
    )
    p.add_argument(
        "function",
        choices=["dtw", "lcs", "edit", "hausdorff", "hamming", "manhattan"],
    )
    p.add_argument("--length", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument(
        "--ideal", action="store_true", help="mathematically exact chip"
    )


def _add_sweeps(sub: argparse._SubParsersAction) -> None:
    f5 = sub.add_parser("fig5", help="Fig. 5 sweep")
    f5.add_argument(
        "--lengths", type=int, nargs="+", default=[10, 20, 30, 40]
    )
    f5.add_argument("--datasets", nargs="+", default=["Symbols"])
    f5.add_argument(
        "--no-time", action="store_true", help="errors only (fast)"
    )

    f6a = sub.add_parser("fig6a", help="Fig. 6(a) speedups")
    f6a.add_argument("--length", type=int, default=40)

    f6b = sub.add_parser("fig6b", help="Fig. 6(b) CPU comparison")
    f6b.add_argument(
        "--lengths", type=int, nargs="+", default=[10, 20, 30, 40]
    )

    sub.add_parser("power", help="Section 4.3 power & energy")
    report = sub.add_parser("report", help="all experiments")
    report.add_argument("--quick", action="store_true")
    sub.add_parser("datasets", help="list synthetic datasets")


def _add_serving(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve-bench",
        help="replay a mixed query stream through the accelerator pool",
    )
    p.add_argument("--queries", type=int, default=1000)
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--window-us",
        type=float,
        default=2.0,
        help="dynamic batching window (microseconds)",
    )
    p.add_argument("--max-batch", type=int, default=32)
    p.add_argument("--queue-depth", type=int, default=64)
    p.add_argument(
        "--no-batching",
        action="store_true",
        help="serve every query with its own settle",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    p.add_argument(
        "--latency-model",
        choices=["calibrated", "measured"],
        default="calibrated",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the full JSON snapshot"
    )


def _add_bench(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "bench",
        help=(
            "engine benchmark (levelized + template cache + batching "
            "vs the seed engine), writing BENCH_engine.json"
        ),
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="single-repeat CI preset",
    )
    p.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats per case (default: 3, smoke: 1)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out",
        default=None,
        help=(
            "output JSON path (default BENCH_engine.json; with --smoke "
            "BENCH_smoke.json, so a local CI run leaves the recorded "
            "full-run figures alone)"
        ),
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the JSON report instead of the table",
    )


def _add_faults(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "faults",
        help=(
            "fault-injection campaign through the serving pool "
            "(inject, detect, repair, re-serve)"
        ),
    )
    p.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=None,
        help="stuck-at fault rates to sweep (default 0.005 0.01 0.02)",
    )
    p.add_argument(
        "--functions",
        nargs="+",
        default=None,
        choices=["dtw", "lcs", "edit", "hausdorff", "hamming", "manhattan"],
        help="serving workload functions (default manhattan dtw)",
    )
    p.add_argument("--shards", type=int, default=3)
    p.add_argument("--queries", type=int, default=8)
    p.add_argument("--candidates", type=int, default=8)
    p.add_argument("--length", type=int, default=8)
    p.add_argument(
        "--array",
        type=int,
        default=12,
        help="campaign chips use a square PE array of this size",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--no-repair",
        action="store_true",
        help="detect and quarantine only; skip recalibration",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="the small CI preset (one rate, one function, 2 shards)",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )


def _add_chaos(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "chaos",
        help=(
            "seeded chaos scenarios through the resilient serving "
            "stack, gated on availability/latency/accuracy SLOs"
        ),
    )
    p.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        choices=[
            "shard_death",
            "drift_storm",
            "queue_saturation",
            "cache_storm",
            "flapping_shard",
        ],
        help="which scenarios to run (default: all five)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--smoke",
        action="store_true",
        help="the small CI preset (fewer queries per scenario)",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the JSON report to this file",
    )


def _add_check(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "check",
        help="static electrical rule checks over the accelerator",
    )
    p.add_argument(
        "functions",
        nargs="*",
        metavar="function",
        help="configurations to verify (default: all six)",
    )
    p.add_argument(
        "--shallow",
        action="store_true",
        help="skip the per-function graph smoke builds",
    )
    p.add_argument(
        "--spice",
        action="store_true",
        help="also run the netlist ERC over the SPICE PE circuits",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "DAC'17 memristor distance accelerator — reproduction CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_compute(sub)
    _add_sweeps(sub)
    _add_serving(sub)
    _add_bench(sub)
    _add_faults(sub)
    _add_chaos(sub)
    _add_check(sub)
    return parser


def _cmd_compute(args: argparse.Namespace) -> int:
    import numpy as np

    from . import distances as sw
    from .accelerator import DistanceAccelerator, get_config
    from .analog import IDEAL

    rng = np.random.default_rng(args.seed)
    p = rng.normal(size=args.length)
    q = rng.normal(size=args.length)
    kwargs = (
        {"threshold": args.threshold}
        if get_config(args.function).uses_threshold
        else {}
    )
    chip = (
        DistanceAccelerator(nonideality=IDEAL, quantise_io=False)
        if args.ideal
        else DistanceAccelerator()
    )
    reference = getattr(sw, args.function)(p, q, **kwargs)
    result = chip.compute(
        args.function, p, q, measure_time=True, **kwargs
    )
    print(f"function:     {args.function} (n = {args.length})")
    print(f"software:     {reference:.6f}")
    print(f"accelerator:  {result.value:.6f}")
    print(f"convergence:  {result.convergence_time_s * 1e9:.2f} ns")
    print(f"conversion:   {result.conversion_time_s * 1e9:.2f} ns")
    print(f"tiles:        {result.tiles}, overflow: {result.overflow}")
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from .eval import run_fig5

    result = run_fig5(
        lengths=tuple(args.lengths),
        datasets=tuple(args.datasets),
        measure_time=not args.no_time,
    )
    print(result.table())
    return 0


def _cmd_fig6a(args: argparse.Namespace) -> int:
    from .eval import run_fig6a

    print(run_fig6a(length=args.length).table())
    return 0


def _cmd_fig6b(args: argparse.Namespace) -> int:
    from .eval import run_fig6b

    print(run_fig6b(lengths=tuple(args.lengths)).table())
    return 0


def _cmd_power(_args: argparse.Namespace) -> int:
    from .eval import run_power_table

    print(run_power_table().table())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .eval import full_report

    print(full_report(quick=args.quick).render())
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from .datasets import UCR_SPECS

    print(
        f"{'name':<10} {'classes':>8} {'length':>7} {'train':>6} "
        f"{'test':>6}"
    )
    for name in sorted(UCR_SPECS):
        spec = UCR_SPECS[name]
        print(
            f"{name:<10} {spec.n_classes:>8} {spec.length:>7} "
            f"{spec.train_size:>6} {spec.test_size:>6}"
        )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    from .accelerator import DistanceAccelerator
    from .check import (
        RULE_CATALOGUE,
        check_circuit,
        check_function_config,
        check_params,
    )
    from .check.erc import demo_pe_netlists

    accelerator = DistanceAccelerator(validate=False)
    functions = args.functions or [
        "dtw", "lcs", "edit", "hausdorff", "hamming", "manhattan"
    ]
    deep = not args.shallow
    sections = {
        "params": check_params(
            accelerator.params,
            dac_full_scale=accelerator.dac.spec.full_scale,
            adc_full_scale=accelerator.adc.spec.full_scale,
        )
    }
    for name in functions:
        sections[f"config {name}"] = check_function_config(
            name, params=accelerator.params, deep=deep
        )
    if args.spice:
        for name, circuit in demo_pe_netlists().items():
            sections[f"netlist {name}"] = check_circuit(circuit)

    n_errors = sum(len(r.errors) for r in sections.values())
    n_warnings = sum(len(r.warnings) for r in sections.values())
    if args.json:
        print(
            json.dumps(
                {
                    "sections": {
                        name: report.as_dict()
                        for name, report in sections.items()
                    },
                    "n_errors": n_errors,
                    "n_warnings": n_warnings,
                    "rules": dict(sorted(RULE_CATALOGUE.items())),
                },
                indent=2,
            )
        )
    else:
        for name, report in sections.items():
            status = "ok" if not len(report) else report.render()
            print(f"{name:<20} {status}")
        print(
            f"-- {len(sections)} sections, {n_errors} error(s), "
            f"{n_warnings} warning(s)"
        )
    return 1 if n_errors else 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .serving import PoolConfig, run_serve_bench

    config = PoolConfig(
        queue_depth=args.queue_depth,
        batch_window_s=args.window_us * 1e-6,
        max_batch=args.max_batch,
        enable_batching=not args.no_batching,
        cache_capacity=0 if args.no_cache else 4096,
        latency_model=args.latency_model,
    )
    report = run_serve_bench(
        n_queries=args.queries,
        n_shards=args.shards,
        seed=args.seed,
        config=config,
    )
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.table())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .eval import run_engine_bench

    report = run_engine_bench(
        smoke=args.smoke, repeats=args.repeats, seed=args.seed
    )
    out = args.out
    if out is None:
        out = "BENCH_smoke.json" if args.smoke else "BENCH_engine.json"
    with open(out, "w") as fh:
        fh.write(report.to_json(indent=2) + "\n")
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.table())
        print(f"-- wrote {out}")
    if not report.ok:
        # The template-cached levelized path is no longer what a stock
        # accelerator serves, the engines disagree (both make the
        # speedups meaningless) or a case fell below its floor.
        print(
            "bench FAILED: fast path not default, engines diverge or "
            "a speedup is below its floor "
            f"({', '.join(report.below_floor) or 'none below'})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults import run_campaign, smoke_campaign

    if args.smoke:
        result = smoke_campaign(seed=args.seed)
    else:
        kwargs = {}
        if args.rates is not None:
            kwargs["rates"] = tuple(args.rates)
        if args.functions is not None:
            kwargs["functions"] = tuple(args.functions)
        result = run_campaign(
            n_shards=args.shards,
            n_queries=args.queries,
            n_candidates=args.candidates,
            length=args.length,
            array_rows=args.array,
            array_cols=args.array,
            seed=args.seed,
            auto_repair=not args.no_repair,
            **kwargs,
        )
    if args.json:
        print(result.to_json(indent=2))
    else:
        print(result.table())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .serving.chaos import run_chaos

    report = run_chaos(
        scenarios=args.scenarios, seed=args.seed, smoke=args.smoke
    )
    if args.out:
        Path(args.out).write_text(report.to_json(indent=2))
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.table())
    if not report.ok:
        print("chaos FAILED: SLO violations", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "compute": _cmd_compute,
    "fig5": _cmd_fig5,
    "fig6a": _cmd_fig6a,
    "fig6b": _cmd_fig6b,
    "power": _cmd_power,
    "report": _cmd_report,
    "datasets": _cmd_datasets,
    "serve-bench": _cmd_serve_bench,
    "bench": _cmd_bench,
    "faults": _cmd_faults,
    "chaos": _cmd_chaos,
    "check": _cmd_check,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
