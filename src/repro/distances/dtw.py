"""Dynamic time warping (Eq. 2 of the paper).

Implements the cumulative-distance recurrence

``D[i,j] = w[i,j] * |P[i] - Q[j]| + min(D[i,j-1], D[i-1,j], D[i-1,j-1])``

with optional per-cell weights (weighted DTW, Jeong et al. [12]) and the
Sakoe-Chiba band constraint the paper adopts (``R = 5% x n`` in the
power analysis of Section 4.3).

The module exposes both the scalar distance (:func:`dtw`) and the full
cumulative matrix / optimal warping path, which the tests use to check
invariants and the accelerator uses as ground truth.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..validation import (
    as_sequence,
    as_weight_matrix,
    resolve_band,
)
from .base import register_distance

_INF = math.inf


def dtw_matrix(
    p,
    q,
    weights=None,
    band: Optional[float] = None,
) -> np.ndarray:
    """Return the full (n+1, m+1) cumulative DTW cost matrix.

    Row/column 0 hold the Eq. (2) boundary conditions
    ``D[0,0] = 0`` and ``D[0,j] = D[i,0] = inf``.

    Parameters
    ----------
    p, q:
        Input sequences.
    weights:
        Optional (n, m) weight matrix ``w[i,j]`` (weighted DTW); ``None``
        or a scalar gives the unweighted recurrence.
    band:
        Sakoe-Chiba radius: ``None`` (unconstrained), an ``int`` count
        of cells, or a ``float`` fraction of the longer length.
    """
    return np.array(_cumulative_rows(p, q, weights, band), dtype=np.float64)


def _cumulative_rows(p, q, weights, band) -> List[List[float]]:
    """The rows of :func:`dtw_matrix`, as lists of Python floats.

    The recurrence runs over plain floats: indexing NumPy scalars cell
    by cell costs several times the arithmetic.  The operations, and so
    every cell's bits, are the same as over a float64 array.
    """
    p = as_sequence(p, "p")
    q = as_sequence(q, "q")
    n, m = p.shape[0], q.shape[0]
    w = as_weight_matrix(weights, n, m)
    r = resolve_band(band, n, m)

    cost = (w * np.abs(p[:, None] - q[None, :])).tolist()
    prev = [0.0] + [_INF] * m
    rows = [prev]
    for i in range(1, n + 1):
        # The band is defined on the (i, j) index difference, scaled for
        # unequal lengths so the diagonal stays feasible.
        centre = i * m / n
        lo = max(1, math.floor(centre - r))
        hi = min(m, math.ceil(centre + r))
        row = [_INF] * (m + 1)
        costs = cost[i - 1]
        # min(left, up, diag) spelled out, in its comparison order;
        # the left neighbour of the band's first cell is always inf.
        left = _INF
        diag = prev[lo - 1]
        for j in range(lo, hi + 1):
            up = prev[j]
            best = left
            if up < best:
                best = up
            if diag < best:
                best = diag
            diag = up
            if best == _INF:
                left = _INF
                continue
            left = row[j] = costs[j - 1] + best
        rows.append(row)
        prev = row
    return rows


@register_distance(
    "dtw", structure="matrix", supports_unequal_lengths=True
)
def dtw(
    p,
    q,
    weights=None,
    band: Optional[float] = None,
) -> float:
    """Dynamic time warping distance ``DTW(P, Q) = D[n, m]`` (Eq. 2)."""
    return _cumulative_rows(p, q, weights, band)[-1][-1]


def dtw_path(
    p,
    q,
    weights=None,
    band: Optional[float] = None,
) -> Tuple[float, List[Tuple[int, int]]]:
    """Return ``(distance, warping_path)``.

    The path is the list of 0-based ``(i, j)`` index pairs of the
    optimal alignment, from ``(0, 0)`` to ``(n-1, m-1)``.  A band that
    admits no path gives ``(inf, [])``.
    """
    d = dtw_matrix(p, q, weights=weights, band=band)
    n, m = d.shape[0] - 1, d.shape[1] - 1
    if np.isinf(d[n, m]):
        return float(d[n, m]), []
    i, j = n, m
    path: List[Tuple[int, int]] = []
    while i > 0 or j > 0:
        path.append((i - 1, j - 1))
        if i == 1 and j == 1:
            break
        moves = (
            (d[i - 1, j - 1], i - 1, j - 1),
            (d[i - 1, j], i - 1, j),
            (d[i, j - 1], i, j - 1),
        )
        _, i, j = min(moves, key=lambda t: t[0])
    path.reverse()
    return float(d[n, m]), path


def dtw_vectorised(
    p,
    q,
    band: Optional[float] = None,
) -> float:
    """Anti-diagonal vectorised unweighted DTW.

    Functionally identical to :func:`dtw` with ``weights=None``; used by
    the CPU baseline to give numpy a fair shot in Fig. 6(b).
    """
    p = as_sequence(p, "p")
    q = as_sequence(q, "q")
    n, m = p.shape[0], q.shape[0]
    r = resolve_band(band, n, m)
    cost = np.abs(p[:, None] - q[None, :])
    if r < max(n, m):
        ii = np.arange(n)[:, None]
        jj = np.arange(m)[None, :]
        centre = (ii + 1) * m / n
        mask = np.abs(jj + 1 - centre) > r
        cost = np.where(mask, _INF, cost)

    d = np.full((n + 1, m + 1), _INF)
    d[0, 0] = 0.0
    # Sweep anti-diagonals k = i + j of the (1..n, 1..m) grid.
    for k in range(2, n + m + 1):
        i_lo = max(1, k - m)
        i_hi = min(n, k - 1)
        if i_lo > i_hi:
            continue
        i = np.arange(i_lo, i_hi + 1)
        j = k - i
        prev = np.minimum(
            np.minimum(d[i, j - 1], d[i - 1, j]), d[i - 1, j - 1]
        )
        d[i, j] = cost[i - 1, j - 1] + prev
    return float(d[n, m])
