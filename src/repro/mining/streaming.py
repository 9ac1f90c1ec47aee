"""Streaming subsequence search (the UCR-suite optimisations of [24]).

Rakthanmanon et al.'s trillion-scale search relies on three software
tricks on top of the lower-bound cascade, all implemented here:

* **online normalisation** — per-window mean/std from running sums in
  O(1) per window instead of O(m);
* **early abandoning** of LB_Keogh — stop accumulating the bound as
  soon as it crosses the best-so-far;
* **cascading bounds** — LB_Kim (O(1)-ish) before LB_Keogh before the
  full DTW.

This is the software state of the art the paper positions the
accelerator against: even with all pruning, every *surviving*
candidate still needs a full DTW — the >99 % bottleneck.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..backends import resolve_backend
from ..distances.lower_bounds import keogh_envelope, lb_kim
from ..errors import SequenceError
from ..validation import as_sequence
from ..datasets.preprocessing import z_normalise


class RunningWindowStats:
    """O(1) mean/std of every length-``m`` window via running sums."""

    def __init__(self, series: np.ndarray, window: int) -> None:
        if window < 1 or window > series.shape[0]:
            raise SequenceError("window must fit the series")
        self.window = window
        cumsum = np.concatenate([[0.0], np.cumsum(series)])
        cumsum2 = np.concatenate([[0.0], np.cumsum(series**2)])
        n_windows = series.shape[0] - window + 1
        idx = np.arange(n_windows)
        self.means = (cumsum[idx + window] - cumsum[idx]) / window
        second = (cumsum2[idx + window] - cumsum2[idx]) / window
        variance = np.maximum(second - self.means**2, 0.0)
        self.stds = np.sqrt(variance)

    def normalise(self, window_values: np.ndarray, index: int) -> np.ndarray:
        """z-normalise window ``index`` using the precomputed stats."""
        std = self.stds[index]
        if std < 1.0e-12:
            return window_values - self.means[index]
        return (window_values - self.means[index]) / std


def lb_keogh_early_abandon(
    candidate: np.ndarray,
    upper: np.ndarray,
    lower: np.ndarray,
    best_so_far: float,
) -> "tuple[float, bool]":
    """LB_Keogh accumulation that stops at ``best_so_far``.

    Returns ``(bound_or_partial, abandoned)``; when abandoned the
    partial sum already proves the candidate cannot win.
    """
    total = 0.0
    for k in range(candidate.shape[0]):
        x = candidate[k]
        if x > upper[k]:
            total += x - upper[k]
        elif x < lower[k]:
            total += lower[k] - x
        if total >= best_so_far:
            return total, True
    return total, False


@dataclasses.dataclass
class StreamingSearchResult:
    """Best match plus streaming-search instrumentation."""

    best_index: int
    best_distance: float
    candidates: int
    lb_kim_pruned: int
    lb_keogh_pruned: int
    lb_keogh_abandoned: int
    dtw_calls: int


def streaming_subsequence_search(
    series,
    query,
    band: Optional[float] = 0.05,
    backend=None,
    use_lb_kim: bool = True,
) -> StreamingSearchResult:
    """UCR-suite style search over all windows of ``series``.

    Functionally identical to
    :func:`repro.mining.subsequence_search` with normalisation and
    bounds enabled, but with O(1) window statistics and
    early-abandoning LB_Keogh — the version that scales to streams.
    ``backend`` (a :class:`repro.backends.DistanceBackend` or name;
    ``None`` is the software reference) runs each surviving full DTW
    through its ``compute``.  ``use_lb_kim=False`` disables the first
    cascade stage (bound ablations).
    """
    series_arr = as_sequence(series, "series")
    query_arr = z_normalise(as_sequence(query, "query"))
    m = query_arr.shape[0]
    if m > series_arr.shape[0]:
        raise SequenceError("query longer than the series")
    backend = resolve_backend(backend)
    stats = RunningWindowStats(series_arr, m)
    upper, lower = keogh_envelope(query_arr, band=band)

    best_distance = np.inf
    best_index = -1
    kim_pruned = 0
    keogh_pruned = 0
    keogh_abandoned = 0
    dtw_calls = 0
    n_windows = series_arr.shape[0] - m + 1
    for index in range(n_windows):
        window = stats.normalise(
            series_arr[index : index + m], index
        )
        if use_lb_kim and lb_kim(window, query_arr) >= best_distance:
            kim_pruned += 1
            continue
        bound, abandoned = lb_keogh_early_abandon(
            window, upper, lower, best_distance
        )
        if abandoned:
            keogh_abandoned += 1
            continue
        if bound >= best_distance:
            keogh_pruned += 1
            continue
        distance = backend.compute("dtw", window, query_arr, band=band)
        dtw_calls += 1
        if distance < best_distance:
            best_distance = distance
            best_index = index
    return StreamingSearchResult(
        best_index=best_index,
        best_distance=float(best_distance),
        candidates=n_windows,
        lb_kim_pruned=kim_pruned,
        lb_keogh_pruned=keogh_pruned,
        lb_keogh_abandoned=keogh_abandoned,
        dtw_calls=dtw_calls,
    )
