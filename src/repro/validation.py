"""Input validation helpers shared across the library.

All public distance and accelerator entry points funnel their inputs
through :func:`as_sequence` / :func:`as_weight_matrix` so error messages
are uniform and NaN/shape problems are caught at the API boundary
rather than deep inside a DP recurrence or a circuit build.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import LengthMismatchError, SequenceError, WeightShapeError


def as_sequence(values, name: str = "sequence") -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 array, validating it.

    Parameters
    ----------
    values:
        Anything convertible to a numpy array of numbers.
    name:
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        A contiguous 1-D ``float64`` array: the input itself when it
        already is one, else a converted copy.  A caller that keeps
        the result past the call and must not see later writes to the
        input copies it (the serving pool's ``submit`` does).

    Raises
    ------
    SequenceError
        If the input is empty, not 1-D, or contains NaN/inf.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise SequenceError(
            f"{name} must be one-dimensional, got shape {arr.shape}"
        )
    return _checked_values(arr, name)


def as_sequences(values, name: str = "sequence") -> np.ndarray:
    """Coerce ``values`` to one sequence or a stack of equal-length ones.

    Like :func:`as_sequence`, but a 2-D ``(count, length)`` input is
    accepted as ``count`` sequences, one per row, so a function that
    reduces along the last axis serves a single sequence and a whole
    window bank alike.  The result is C-contiguous, so every row is a
    contiguous sequence of its own.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise SequenceError(
            f"{name} must be one sequence or a 2-D stack of them, "
            f"got shape {arr.shape}"
        )
    return _checked_values(arr, name)


def _checked_values(arr: np.ndarray, name: str) -> np.ndarray:
    """Reject empty sequences and non-finite values; make contiguous."""
    if arr.shape[-1] == 0:
        raise SequenceError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise SequenceError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def require_same_length(p: np.ndarray, q: np.ndarray) -> None:
    """Raise :class:`LengthMismatchError` unless the last axes match."""
    if p.shape[-1] != q.shape[-1]:
        raise LengthMismatchError(
            "sequences must have equal length for this distance: "
            f"{p.shape[-1]} != {q.shape[-1]}"
        )


def as_weight_vector(
    weights, length: int, name: str = "weights"
) -> np.ndarray:
    """Validate a per-position weight vector.

    ``None`` means uniform weights of 1.0 (the unweighted distance).
    """
    if weights is None:
        return np.ones(length, dtype=np.float64)
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(length, float(arr), dtype=np.float64)
    if arr.shape != (length,):
        raise WeightShapeError(
            f"{name} must have shape ({length},), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise WeightShapeError(f"{name} contains NaN or infinite values")
    if np.any(arr < 0):
        raise WeightShapeError(f"{name} must be non-negative")
    return arr


def as_weight_matrix(
    weights, rows: int, cols: int, name: str = "weights"
) -> np.ndarray:
    """Validate an (rows, cols) weight matrix; ``None`` means all ones.

    Scalars broadcast to the full matrix, mirroring how a single
    memristor ratio would be programmed identically into every PE.
    """
    if weights is None:
        return np.ones((rows, cols), dtype=np.float64)
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full((rows, cols), float(arr), dtype=np.float64)
    if arr.shape != (rows, cols):
        raise WeightShapeError(
            f"{name} must have shape ({rows}, {cols}), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise WeightShapeError(f"{name} contains NaN or infinite values")
    if np.any(arr < 0):
        raise WeightShapeError(f"{name} must be non-negative")
    return arr


def as_positive_float(value, name: str) -> float:
    """Validate a strictly positive scalar parameter."""
    out = float(value)
    if not np.isfinite(out) or out <= 0.0:
        raise SequenceError(f"{name} must be a positive finite number")
    return out


def as_non_negative_float(value, name: str) -> float:
    """Validate a non-negative scalar parameter."""
    out = float(value)
    if not np.isfinite(out) or out < 0.0:
        raise SequenceError(f"{name} must be a non-negative finite number")
    return out


def resolve_band(radius: Optional[float], n: int, m: int) -> int:
    """Resolve a Sakoe-Chiba band radius to an absolute integer.

    ``radius`` may be ``None`` (no constraint), an ``int`` (absolute
    radius in cells) or a ``float`` in (0, 1] interpreted as a fraction
    of the longer sequence, matching the paper's ``R = 5% x n``.
    """
    if radius is None:
        return max(n, m)
    if isinstance(radius, float) and 0.0 < radius <= 1.0:
        return max(1, int(round(radius * max(n, m))))
    r = int(radius)
    if r < 0:
        raise SequenceError("band radius must be non-negative")
    return r
