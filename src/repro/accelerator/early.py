"""Early determination (Section 3.3(1), Fig. 3 of the paper).

In the row structure every input sees an identical circuit, so the
*ordering* of several candidates' outputs is already correct long
before any of them has settled: "the sequence with the minimum value
obtained at the Early Point is also the one with the minimum value
obtained in the convergence state."  The paper samples at one tenth of
the convergence time and books the 10x as part of the HamD/MD speedup
in Fig. 6(a).

:func:`early_rank` reproduces the mechanism on the simulated waveforms
of a chip's :meth:`~repro.accelerator.DistanceAccelerator.batch` graph;
:func:`early_nearest_neighbour` applies it to classification, the
paper's own example.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from ..analog import transient, suggest_dt
from ..errors import ConfigurationError
from .array import DistanceAccelerator
from .configurations import get_config

#: The paper's Early Point: one tenth of the convergence time.
EARLY_FRACTION = 0.1


@dataclasses.dataclass
class EarlyDecision:
    """Result of an early-determination comparison.

    Attributes
    ----------
    early_ranking:
        Candidate indices ordered by output magnitude at the Early
        Point (most similar first).
    final_ranking:
        Same ordering at full convergence (the ground-truth analog
        answer).
    early_time_s / full_time_s:
        The sampling instants; their ratio is the speedup booked.
    consistent:
        Whether the *winner* (argmin) agrees between the two — the
        property Fig. 3 illustrates.
    """

    early_ranking: List[int]
    final_ranking: List[int]
    early_time_s: float
    full_time_s: float
    early_values: NDArray[np.float64]
    final_values: NDArray[np.float64]

    @property
    def consistent(self) -> bool:
        return self.early_ranking[0] == self.final_ranking[0]

    @property
    def speedup(self) -> float:
        if self.early_time_s <= 0:
            return float("inf")
        return self.full_time_s / self.early_time_s


def early_rank(
    query: ArrayLike,
    candidates: Sequence[ArrayLike],
    function: str = "manhattan",
    weights: Optional[ArrayLike] = None,
    threshold: float = 0.0,
    early_fraction: float = EARLY_FRACTION,
    accelerator: Optional[DistanceAccelerator] = None,
) -> EarlyDecision:
    """Rank candidates against a query using early determination.

    Lays out one row-structure instance per candidate in the chip's
    :meth:`~DistanceAccelerator.batch` template (they share the query's
    DAC row and settle simultaneously, exactly the Fig. 3 scenario),
    simulates its transient once, and reads all outputs at the Early
    Point and at full convergence.  ``accelerator`` is the chip — its
    converters, fault map and template cache apply; the default is an
    ideal-converter chip (``quantise_io=False``), as Fig. 3 shows.
    """
    if not 0.0 < early_fraction <= 1.0:
        raise ConfigurationError("early_fraction must be in (0, 1]")
    chip = (
        DistanceAccelerator(quantise_io=False)
        if accelerator is None
        else accelerator
    )
    pairs, weight_vectors = chip._query_pairs(
        function, query, candidates, weights
    )
    _, frozen, _ = chip._batch_template(
        get_config(function), pairs, weight_vectors, threshold
    )
    dt = suggest_dt(frozen)
    window = max(
        14.0 * float(np.max(frozen.critical_tau)),
        60.0 * float(np.max(frozen.tau)),
    )
    result = transient(frozen, t_stop=window, dt=dt)
    names = [f"cand{k}" for k in range(len(pairs))]
    t_full = max(
        result.convergence_time(name, chip.params.convergence_tolerance)
        for name in names
    )
    t_early = early_fraction * t_full
    early_idx = int(np.searchsorted(result.time, t_early))
    early_idx = min(early_idx, result.time.size - 1)
    early_values = np.array(
        [result.waves[name][early_idx] for name in names]
    )
    final_values = np.array([result.final[name] for name in names])
    return EarlyDecision(
        early_ranking=list(np.argsort(early_values)),
        final_ranking=list(np.argsort(final_values)),
        early_time_s=float(result.time[early_idx]),
        full_time_s=t_full,
        early_values=early_values,
        final_values=final_values,
    )


def early_nearest_neighbour(
    query: ArrayLike,
    candidates: Sequence[ArrayLike],
    function: str = "manhattan",
    **kwargs: Any,
) -> int:
    """Index of the nearest candidate decided at the Early Point."""
    return early_rank(query, candidates, function=function, **kwargs).early_ranking[0]
