"""Motif (frequent pattern) discovery.

Frequency pattern mining is the third task the paper names in
Section 1.  A *motif* is the pair of non-overlapping subsequences of a
series that are most similar under a chosen distance; top-k motifs
generalise this.  The implementation is the classic brute-force-with-
pruning formulation over sliding windows: one registered distance,
each window pair scored by one
:meth:`~repro.backends.DistanceBackend.compute` call of the backend
(software by default, or a chip or serving pool).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..backends import resolve_backend
from ..distances.base import get_distance
from ..errors import SequenceError
from ..validation import as_sequence
from ..datasets.preprocessing import z_normalise
from .subsequence import sliding_windows


@dataclasses.dataclass(frozen=True)
class Motif:
    """One discovered motif: two window start indices and the distance."""

    first: int
    second: int
    distance: float


def discover_motifs(
    series,
    window: int,
    k: int = 1,
    distance: str = "manhattan",
    exclusion: Optional[int] = None,
    normalise: bool = True,
    backend=None,
    **distance_kwargs,
) -> List[Motif]:
    """Top-``k`` non-overlapping motif pairs of ``series``.

    Parameters
    ----------
    window:
        Subsequence length.
    k:
        Number of motifs to return (best first).
    distance:
        Registered distance name (default Manhattan, the cheap
        row-structure function — a realistic accelerator workload).
        Similarity scores (LCS) rank largest first.
    exclusion:
        Trivial-match exclusion zone (default ``window // 2``): paired
        windows must start at least this far apart, and later motifs
        must not overlap earlier ones.
    backend:
        The :class:`repro.backends.DistanceBackend` (or name) that
        scores each window pair; ``None`` is the software reference.
    """
    arr = as_sequence(series, "series")
    similarity = get_distance(distance).similarity
    backend = resolve_backend(backend)
    if exclusion is None:
        exclusion = max(1, window // 2)
    if k < 1:
        raise SequenceError("k must be >= 1")
    windows = sliding_windows(arr, window)
    n = windows.shape[0]
    prepared = (
        [z_normalise(w) for w in windows] if normalise else list(windows)
    )

    pairs: List[Motif] = []
    for i in range(n):
        for j in range(i + exclusion, n):
            d = backend.compute(
                distance, prepared[i], prepared[j], **distance_kwargs
            )
            pairs.append(Motif(first=i, second=j, distance=float(d)))
    pairs.sort(key=lambda m: m.distance, reverse=similarity)

    chosen: List[Motif] = []
    occupied: List[int] = []
    for motif in pairs:
        if len(chosen) == k:
            break
        clash = any(
            abs(motif.first - start) < exclusion
            or abs(motif.second - start) < exclusion
            for start in occupied
        )
        if clash:
            continue
        chosen.append(motif)
        occupied.extend([motif.first, motif.second])
    return chosen
