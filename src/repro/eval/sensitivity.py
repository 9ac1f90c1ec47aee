"""Error-source sensitivity analysis (extension A7).

The paper *attributes* Fig. 5's errors — "larger zero drift exists [in]
PEs for DTW and EdD"; "each sub-module ... attached with a fixed small
absolute error" for HamD/MD — without isolating the sources.  This
harness does the isolation: it re-runs each function with exactly one
non-ideality enabled at a time (finite gain, amplifier offsets, diode
drop, comparator offset, memristor-ratio tolerance) and reports each
knob's contribution to the total error, per function.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..accelerator import DistanceAccelerator
from ..analog import NonidealityModel
from ..datasets import load_dataset, sample_pairs
from ..distances import get_distance
from .fig5 import _distance_kwargs

#: The isolated knob configurations.  Each enables ONE error source at
#: the default chip's magnitude; "none" is the exact reference and
#: "all" the full default chip.
KNOBS: Dict[str, dict] = {
    "none": dict(),
    "finite_gain": dict(open_loop_gain=1.0e4),
    "offsets": dict(offset_sigma=2.0e-4),
    "diode_drop": dict(diode_drop=2.0e-5),
    "comparator": dict(comparator_offset_sigma=5.0e-4),
    "weights": dict(weight_tolerance=0.002),
    "all": dict(
        open_loop_gain=1.0e4,
        offset_sigma=2.0e-4,
        diode_drop=2.0e-5,
        comparator_offset_sigma=5.0e-4,
        weight_tolerance=0.002,
    ),
}

_EXACT = dict(
    open_loop_gain=1.0e12,
    offset_sigma=0.0,
    diode_drop=0.0,
    comparator_offset_sigma=0.0,
    weight_tolerance=0.0,
)


def _model_for(knob: str, seed: int) -> NonidealityModel:
    config = dict(_EXACT)
    config.update(KNOBS[knob])
    return NonidealityModel(seed=seed, **config)


@dataclasses.dataclass
class SensitivityRow:
    """Mean error of one function under one isolated error source."""

    function: str
    knob: str
    mean_error: float


@dataclasses.dataclass
class SensitivityReport:
    rows: List[SensitivityRow]

    def errors_of(self, function: str) -> Dict[str, float]:
        return {
            r.knob: r.mean_error
            for r in self.rows
            if r.function == function
        }

    def dominant_source(self, function: str) -> str:
        """The single knob with the largest isolated error."""
        isolated = {
            k: v
            for k, v in self.errors_of(function).items()
            if k not in ("none", "all")
        }
        return max(isolated, key=isolated.get)

    def table(self) -> str:
        knobs = list(KNOBS)
        header = f"{'function':<10}" + "".join(
            f"{k:>12}" for k in knobs
        )
        lines = [header]
        functions = sorted({r.function for r in self.rows})
        for function in functions:
            errors = self.errors_of(function)
            lines.append(
                f"{function:<10}"
                + "".join(f"{errors[k]:>11.3%} " for k in knobs)
            )
        return "\n".join(lines)


def run_sensitivity(
    functions: Sequence[str] = ("dtw", "edit", "hausdorff", "manhattan"),
    length: int = 16,
    dataset: str = "Symbols",
    n_pairs: int = 2,
    seed: int = 77,
) -> SensitivityReport:
    """One row per (function, knob): mean hybrid error vs software."""
    pairs = sample_pairs(
        load_dataset(dataset), length, seed=seed, n_pairs=n_pairs
    )
    rows: List[SensitivityRow] = []
    for function in functions:
        software = get_distance(function).fn
        kwargs = _distance_kwargs(function)
        references = [
            software(p, q, **kwargs) for p, q, _same in pairs
        ]
        for knob in KNOBS:
            chip = DistanceAccelerator(
                nonideality=_model_for(knob, seed),
                quantise_io=False,
            )
            errors = []
            for (p, q, _same), reference in zip(pairs, references):
                value = chip.compute(function, p, q, **kwargs).value
                errors.append(
                    abs(value - reference) / max(abs(reference), 1.0)
                )
            rows.append(
                SensitivityRow(
                    function=function,
                    knob=knob,
                    mean_error=float(np.mean(errors)),
                )
            )
    return SensitivityReport(rows=rows)
