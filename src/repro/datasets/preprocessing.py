"""Preprocessing: normalisation, resampling and pair sampling.

Section 4.1: "For each data set, we formalize the sequences with
different lengths" — full-length UCR series are resampled down to the
evaluation lengths (5-40; DTW SPICE runs capped the longest length at
40).  Section 4.2 draws one same-class and one different-class pair per
dataset; :func:`sample_pairs` reproduces that sampling deterministically.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import DatasetError
from ..validation import as_sequence, as_sequences
from .synthetic import Dataset


def z_normalise(series) -> np.ndarray:
    """Zero-mean unit-variance normalisation (UCR convention).

    ``series`` is one sequence or a ``(count, length)`` stack; each row
    is normalised on its own, to the same bits as a 1-D call on it.  A
    flat sequence (std below 1e-12) is only centred: its divisor is
    1.0, which leaves every centred value exact.
    """
    arr = as_sequences(series, "series")
    length = arr.shape[-1]
    # np.mean's and np.std's own reductions, without their dispatch.
    centred = arr - arr.sum(axis=-1, keepdims=True) / length
    scale = np.sqrt((centred * centred).sum(axis=-1, keepdims=True) / length)
    scale[scale < 1.0e-12] = 1.0
    return centred / scale


def resample(series, length: int) -> np.ndarray:
    """Linear-interpolation resampling to ``length`` samples."""
    arr = as_sequence(series, "series")
    if length < 1:
        raise DatasetError("target length must be >= 1")
    if arr.shape[0] == length:
        return arr.copy()
    src = np.linspace(0.0, 1.0, arr.shape[0])
    dst = np.linspace(0.0, 1.0, length)
    return np.interp(dst, src, arr)


def formalise(series, length: int) -> np.ndarray:
    """The paper's preparation: resample then z-normalise."""
    return z_normalise(resample(series, length))


def sample_pairs(
    dataset: Dataset,
    length: int,
    seed: int = 0,
    n_pairs: int = 1,
) -> List[Tuple[np.ndarray, np.ndarray, bool]]:
    """Draw (same-class, different-class) pair sets, Section 4.2 style.

    Returns ``2 * n_pairs`` tuples ``(p, q, same_class)``, alternating
    one same-class pair and one different-class pair, each formalised
    to ``length``.
    """
    if n_pairs < 1:
        raise DatasetError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    x = np.concatenate([dataset.train_x, dataset.test_x])
    y = np.concatenate([dataset.train_y, dataset.test_y])
    labels = np.unique(y)
    if labels.size < 2:
        raise DatasetError("need at least two classes to sample pairs")
    pairs: List[Tuple[np.ndarray, np.ndarray, bool]] = []
    for _ in range(n_pairs):
        same_label = int(rng.choice(labels))
        same_pool = np.nonzero(y == same_label)[0]
        if same_pool.size < 2:
            raise DatasetError(
                f"class {same_label} has fewer than two instances"
            )
        i, j = rng.choice(same_pool, size=2, replace=False)
        pairs.append(
            (formalise(x[i], length), formalise(x[j], length), True)
        )
        la, lb = rng.choice(labels, size=2, replace=False)
        i = int(rng.choice(np.nonzero(y == la)[0]))
        j = int(rng.choice(np.nonzero(y == lb)[0]))
        pairs.append(
            (formalise(x[i], length), formalise(x[j], length), False)
        )
    return pairs


def evaluation_lengths(max_length: int = 40, step: int = 5) -> List[int]:
    """The Fig. 5 sweep lengths: 5, 10, ..., 40 by default."""
    if max_length < step:
        raise DatasetError("max_length must be >= step")
    return list(range(step, max_length + 1, step))
