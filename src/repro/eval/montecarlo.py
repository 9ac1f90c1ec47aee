"""Monte-Carlo chip analysis: error distributions and parametric yield.

An extension beyond the paper's single-chip SPICE runs: every
:class:`~repro.analog.NonidealityModel` seed is one fabricated chip
with its own systematic offsets, comparator thresholds and residual
ratio errors.  Sweeping seeds gives the across-chip error distribution
and a *parametric yield* — the fraction of chips whose worst-case
relative error stays inside a specification — which is the question a
real deployment of the accelerator would ask first.
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


@dataclasses.dataclass
class ChipSample:
    """Error statistics of one simulated chip instance."""

    seed: int
    mean_error: float
    max_error: float


@dataclasses.dataclass
class MonteCarloResult:
    """Across-chip error distribution for one function."""

    function: str
    chips: List[ChipSample]
    specification: float

    @property
    def mean_of_means(self) -> float:
        return float(np.mean([c.mean_error for c in self.chips]))

    @property
    def worst_chip(self) -> ChipSample:
        return max(self.chips, key=lambda c: c.max_error)

    @property
    def yield_fraction(self) -> float:
        """Fraction of chips with max error within the specification.

        ``nan`` for an empty sample: zero chips have no yield, and
        silently reporting 0 % (or 100 %) would poison tolerance
        sweeps that aggregate these fractions.
        """
        if not self.chips:
            return float("nan")
        passing = sum(
            c.max_error <= self.specification for c in self.chips
        )
        return passing / len(self.chips)

    def table(self) -> str:
        lines = [
            f"function {self.function}: {len(self.chips)} chips, "
            f"spec {self.specification:.1%}",
            f"  mean error across chips: {self.mean_of_means:.3%}",
            f"  worst chip (seed {self.worst_chip.seed}): "
            f"max error {self.worst_chip.max_error:.3%}",
            f"  parametric yield: {self.yield_fraction:.0%}",
        ]
        return "\n".join(lines)


def run_monte_carlo(
    function: str,
    n_chips: int = 20,
    length: int = 16,
    dataset: str = "Symbols",
    specification: float = 0.05,
    pairs_per_chip: int = 2,
    base_model: Optional[NonidealityModel] = None,
    seed0: int = 1000,
) -> MonteCarloResult:
    """Sweep chip seeds and collect per-chip error statistics.

    Error metric matches Fig. 5's hybrid relative/absolute scale.
    """
    if base_model is None:
        base_model = NonidealityModel()
    software = get_distance(function).fn
    kwargs = _distance_kwargs(function)
    pairs = sample_pairs(
        load_dataset(dataset), length, seed=7, n_pairs=pairs_per_chip
    )
    chips: List[ChipSample] = []
    for k in range(n_chips):
        model = dataclasses.replace(base_model, seed=seed0 + k)
        chip = DistanceAccelerator(
            nonideality=model, quantise_io=False
        )
        # Same-length pairs share one graph structure per chip, so the
        # whole probe set settles in a single vectorized pass
        # (bit-identical to per-pair compute calls).
        results = chip.compute_many(
            function, [(p, q) for p, q, _same in pairs], **kwargs
        )
        errors = []
        for (p, q, _same), result in zip(pairs, results):
            reference = software(p, q, **kwargs)
            errors.append(
                abs(result.value - reference)
                / max(abs(reference), 1.0)
            )
        chips.append(
            ChipSample(
                seed=seed0 + k,
                mean_error=float(np.mean(errors)),
                max_error=float(np.max(errors)),
            )
        )
    return MonteCarloResult(
        function=function, chips=chips, specification=specification
    )


def yield_vs_tolerance(
    function: str = "dtw",
    tolerances: Sequence[float] = (0.0, 0.002, 0.01, 0.05),
    n_chips: int = 12,
    specification: float = 0.05,
    **kwargs,
) -> Dict[float, float]:
    """Parametric yield as a function of residual ratio tolerance.

    Connects the Section 3.3 tuning quality to manufacturability: the
    looser the post-tuning tolerance, the fewer chips meet spec.
    """
    out: Dict[float, float] = {}
    for tolerance in tolerances:
        model = NonidealityModel(weight_tolerance=tolerance)
        result = run_monte_carlo(
            function,
            n_chips=n_chips,
            base_model=model,
            specification=specification,
            **kwargs,
        )
        out[float(tolerance)] = result.yield_fraction
    return out
