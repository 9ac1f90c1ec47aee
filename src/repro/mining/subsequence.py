"""Subsequence similarity search with lower-bound pruning.

The paper's headline motivation: "the computation of distance function
takes up to more than 99% of the runtime for subsequence similarity
search" (Rakthanmanon et al. [24]).  This module implements the task —
find the best-matching window of a long series under band-constrained
DTW — with the UCR-suite optimisation ladder (z-normalised windows,
LB_Kim / LB_Keogh cascade, early abandoning), and instruments the
distance-call counts so the benchmarks can show exactly that >99 %
profile and how an accelerator changes it.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..backends import resolve_backend
from ..distances.lower_bounds import keogh_envelope, lb_keogh, lb_kim
from ..errors import SequenceError
from ..validation import as_sequence
from ..datasets.preprocessing import z_normalise


@dataclasses.dataclass
class SearchResult:
    """Best match of a subsequence search plus instrumentation."""

    best_index: int
    best_distance: float
    candidates: int
    lb_kim_pruned: int
    lb_keogh_pruned: int
    dtw_calls: int

    @property
    def pruning_rate(self) -> float:
        if self.candidates == 0:
            return 0.0
        return (
            self.lb_kim_pruned + self.lb_keogh_pruned
        ) / self.candidates


def sliding_windows(series, window: int) -> np.ndarray:
    """All contiguous windows of the series, shape (n_windows, window)."""
    arr = as_sequence(series, "series")
    if window < 1 or window > arr.shape[0]:
        raise SequenceError(
            f"window must be in [1, {arr.shape[0]}], got {window}"
        )
    n_windows = arr.shape[0] - window + 1
    return np.lib.stride_tricks.sliding_window_view(arr, window)[
        :n_windows
    ]


def subsequence_search(
    series,
    query,
    band: Optional[float] = 0.05,
    use_lower_bounds: bool = True,
    normalise: bool = True,
    backend=None,
) -> SearchResult:
    """Best DTW match of ``query`` among all windows of ``series``.

    Parameters
    ----------
    band:
        Sakoe-Chiba radius forwarded to DTW and LB_Keogh.
    use_lower_bounds:
        Apply the LB_Kim -> LB_Keogh cascade before full DTW.
    normalise:
        z-normalise the query and every window (UCR protocol).
    backend:
        The :class:`repro.backends.DistanceBackend` (or name) whose
        ``compute`` runs each surviving full DTW; ``None`` is the
        software reference.  The lower-bound cascade stays in
        software, mirroring the paper's division of labour.

    The cascade is columnar: one NumPy pass z-normalises every window
    and computes both bounds for all of them, then the visit loop, in
    window order, only compares those floats with the best-so-far and
    sends each survivor's normalised row to ``backend.compute``.
    """
    query_arr = as_sequence(query, "query")
    if normalise:
        query_arr = z_normalise(query_arr)
    # One C-contiguous row per window: every row reduces exactly as a
    # 1-D window would, so the columnar cascade keeps per-window bits.
    candidates = np.ascontiguousarray(
        sliding_windows(series, query_arr.shape[0])
    )
    if normalise:
        candidates = z_normalise(candidates)
    backend = resolve_backend(backend)
    envelope = keogh_envelope(query_arr, band=band)
    if use_lower_bounds:
        kim = lb_kim(candidates, query_arr).tolist()
        keogh = lb_keogh(candidates, query_arr, envelope=envelope).tolist()

    best_distance = np.inf
    best_index = -1
    kim_pruned = 0
    keogh_pruned = 0
    dtw_calls = 0
    for index in range(candidates.shape[0]):
        if use_lower_bounds:
            if kim[index] >= best_distance:
                kim_pruned += 1
                continue
            if keogh[index] >= best_distance:
                keogh_pruned += 1
                continue
        distance = backend.compute(
            "dtw", candidates[index], query_arr, band=band
        )
        dtw_calls += 1
        if distance < best_distance:
            best_distance = distance
            best_index = index
    return SearchResult(
        best_index=best_index,
        best_distance=float(best_distance),
        candidates=candidates.shape[0],
        lb_kim_pruned=kim_pruned,
        lb_keogh_pruned=keogh_pruned,
        dtw_calls=dtw_calls,
    )
