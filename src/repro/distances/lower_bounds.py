"""Lower bounds for DTW subsequence search (Rakthanmanon et al. [24]).

The paper motivates the accelerator with the observation that distance
computation dominates (>99 %) of subsequence-search runtime and cites
the UCR-suite lower-bound cascade as the state-of-the-art software
optimisation.  The mining layer uses these bounds to prune candidates
before falling back to full DTW (software or accelerator).

All bounds here satisfy ``LB(P, Q) <= DTW(P, Q)`` for equal-length,
band-constrained DTW, which the property tests verify.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..validation import (
    as_sequence,
    as_sequences,
    require_same_length,
    resolve_band,
)


def lb_kim(p, q) -> Union[float, np.ndarray]:
    """LB_Kim: a cheap O(1)-flavoured bound from boundary features.

    Uses the first/last aligned points plus the global min/max pairs.
    Because the DTW path must start at (0,0) and end at (n-1,m-1), the
    first and last cost terms are always on the path; min/max extrema
    must each be matched against *some* element.

    ``p`` may be a ``(count, length)`` stack of candidates: the bound
    then reduces along the last axis and comes back as one float per
    row, each with the bits of a 1-D call on that row.
    """
    p = as_sequences(p, "p")
    q = as_sequence(q, "q")
    first = np.abs(p[..., 0] - q[0])
    # first and last are distinct path cells unless n == 1.
    if p.shape[-1] == 1 and q.shape[0] == 1:
        return _as_result(first)
    last = np.abs(p[..., -1] - q[-1])
    # Extremum terms: the max of P must align to something <= max(Q),
    # so |max(P) - max(Q)| lower-bounds its matching cost only when it
    # exceeds every element gap; the standard safe form uses min/max:
    max_term = np.abs(p.max(axis=-1) - q.max())
    min_term = np.abs(p.min(axis=-1) - q.min())
    return _as_result(np.maximum(np.maximum(first + last, max_term), min_term))


def keogh_envelope(
    q,
    band: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return the (upper, lower) Keogh envelope of ``q``.

    ``U[i] = max(q[i-r : i+r+1])`` and ``L[i] = min(...)`` where ``r``
    is the Sakoe-Chiba radius.
    """
    q = as_sequence(q, "q")
    n = q.shape[0]
    r = resolve_band(band, n, n)
    upper = np.empty(n)
    lower = np.empty(n)
    for i in range(n):
        lo = max(0, i - r)
        hi = min(n, i + r + 1)
        upper[i] = np.max(q[lo:hi])
        lower[i] = np.min(q[lo:hi])
    return upper, lower


def lb_keogh(
    p,
    q,
    band: Optional[float] = None,
    envelope: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Union[float, np.ndarray]:
    """LB_Keogh: sum of out-of-envelope deviations of ``p`` w.r.t. ``q``.

    Requires equal lengths.  ``envelope`` may be precomputed with
    :func:`keogh_envelope` (the standard trick when one query is
    compared against many candidates).  As with :func:`lb_kim`, ``p``
    may be a ``(count, length)`` stack, giving one bound per row.
    """
    p = as_sequences(p, "p")
    q = as_sequence(q, "q")
    require_same_length(p, q)
    if envelope is None:
        envelope = keogh_envelope(q, band=band)
    upper, lower = envelope
    above = np.clip(p - upper, 0.0, None)
    below = np.clip(lower - p, 0.0, None)
    return _as_result((above + below).sum(axis=-1))


def _as_result(bound) -> Union[float, np.ndarray]:
    """A Python float for one candidate, the float64 array for a stack."""
    return float(bound) if np.ndim(bound) == 0 else bound


def cascading_lower_bound(
    p,
    q,
    band: Optional[float] = None,
) -> float:
    """The UCR-suite style cascade: max(LB_Kim, LB_Keogh).

    Still a valid DTW lower bound, tighter than either component.
    """
    return max(lb_kim(p, q), lb_keogh(p, q, band=band))
