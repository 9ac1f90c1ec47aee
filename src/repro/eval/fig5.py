"""Fig. 5 reproduction: convergence time & relative error vs length.

Protocol (Section 4.2): for each distance function and each sequence
length, draw a same-class and a different-class pair from each of the
three datasets, run the accelerator, and record (a) the convergence
time — first instant the output stays within 0.1 % of its final value —
and (b) the relative error against the software reference.

The paper's qualitative findings this harness reproduces:

* convergence time is almost linear in length for every function
  except HauD, which flattens beyond length ~10;
* DTW and EdD show the largest relative errors (zero drift through the
  deep PE cascade);
* HamD and MD relative errors grow linearly with length (per-element
  bias accumulating in the row adder).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..accelerator import DistanceAccelerator, get_config
from ..distances import get_distance
from ..datasets import (
    evaluation_lengths,
    list_datasets,
    load_dataset,
    sample_pairs,
)

#: Match threshold (sequence-value units) used for the thresholded
#: functions throughout the evaluation; z-normalised data makes 0.5 a
#: reasonable application-agnostic choice.
EVAL_THRESHOLD = 0.5

#: The six accelerated functions, in the paper's Fig. 5 panel order.
ALL_FUNCTIONS = ("dtw", "lcs", "edit", "hausdorff", "hamming", "manhattan")


@dataclasses.dataclass
class Fig5Point:
    """One (function, length) aggregate of the Fig. 5 sweep."""

    function: str
    length: int
    mean_convergence_ns: float
    mean_relative_error: float
    n_runs: int


@dataclasses.dataclass
class Fig5Result:
    """All points of one Fig. 5 reproduction run."""

    points: List[Fig5Point]

    def series(self, function: str) -> "tuple[List[int], List[float], List[float]]":
        """(lengths, convergence_ns, relative_error) for one function."""
        rows = sorted(
            (p for p in self.points if p.function == function),
            key=lambda p: p.length,
        )
        return (
            [p.length for p in rows],
            [p.mean_convergence_ns for p in rows],
            [p.mean_relative_error for p in rows],
        )

    def table(self) -> str:
        """Printable table, one row per (function, length)."""
        lines = [
            f"{'function':<10} {'len':>4} {'t_conv (ns)':>12} "
            f"{'rel. error':>11} {'runs':>5}"
        ]
        for p in self.points:
            lines.append(
                f"{p.function:<10} {p.length:>4} "
                f"{p.mean_convergence_ns:>12.2f} "
                f"{p.mean_relative_error:>10.3%} {p.n_runs:>5}"
            )
        return "\n".join(lines)


def _distance_kwargs(function: str) -> dict:
    if get_config(function).uses_threshold:
        return {"threshold": EVAL_THRESHOLD}
    return {}


def run_fig5(
    functions: Sequence[str] = ALL_FUNCTIONS,
    lengths: Optional[Sequence[int]] = None,
    datasets: Optional[Sequence[str]] = None,
    pairs_per_dataset: int = 1,
    accelerator: Optional[DistanceAccelerator] = None,
    seed: int = 42,
    measure_time: bool = True,
) -> Fig5Result:
    """Run the Fig. 5 sweep and aggregate per (function, length).

    ``measure_time=False`` skips the transient (errors only), which the
    fast test suite uses.  The accelerator defaults to the paper's
    Fig. 5 setting: computation-only, no converter quantisation
    ("we focus on the computation part in the simulation").
    """
    if lengths is None:
        lengths = evaluation_lengths()
    if datasets is None:
        datasets = list_datasets()
    if accelerator is None:
        accelerator = DistanceAccelerator(quantise_io=False)
    loaded = [load_dataset(name) for name in datasets]

    points: List[Fig5Point] = []
    for function in functions:
        kwargs = _distance_kwargs(function)
        software = get_distance(function).fn
        for length in lengths:
            times: List[float] = []
            errors: List[float] = []
            for d_index, dataset in enumerate(loaded):
                pair_list = sample_pairs(
                    dataset,
                    length,
                    seed=seed + d_index,
                    n_pairs=pairs_per_dataset,
                )
                for p, q, _same in pair_list:
                    reference = software(p, q, **kwargs)
                    result = accelerator.compute(
                        function,
                        p,
                        q,
                        measure_time=measure_time,
                        **kwargs,
                    )
                    # Hybrid relative/absolute error: references can be
                    # exactly zero (a same-class pair matching at every
                    # position), where a pure relative error is
                    # undefined; below one distance unit the error is
                    # reported absolutely.
                    scale = max(abs(reference), 1.0)
                    errors.append(
                        abs(result.value - reference) / scale
                    )
                    if measure_time:
                        times.append(result.convergence_time_s)
            points.append(
                Fig5Point(
                    function=function,
                    length=int(length),
                    mean_convergence_ns=(
                        float(np.mean(times)) * 1e9 if times else 0.0
                    ),
                    mean_relative_error=float(np.mean(errors)),
                    n_runs=len(errors),
                )
            )
    return Fig5Result(points=points)


def linearity_score(lengths: Sequence[int], values: Sequence[float]) -> float:
    """R^2 of a linear fit — used to verify the paper's linearity claim."""
    x = np.asarray(lengths, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if x.size < 3 or np.allclose(y, y[0]):
        return 1.0
    coeffs = np.polyfit(x, y, 1)
    fit = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def growth_ratio(values: Sequence[float]) -> float:
    """last/first — near 1 means flat (the HauD signature)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2 or v[0] == 0:
        return 1.0
    return float(v[-1] / v[0])
