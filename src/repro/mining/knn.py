"""k-nearest-neighbour time series classification.

The classic 1-NN + distance-function pipeline the paper's motivating
applications use (vehicle classification with DTW [31], iris
authentication with HamD [29]).  The classifier names a registered
distance and scores every query through one
:meth:`~repro.backends.DistanceBackend.batch` call of its backend, so
the software reference (the default), one chip
(:class:`~repro.backends.AcceleratorBackend`) and a serving pool
(:class:`~repro.serving.PoolBackend`) are interchangeable.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from ..backends import resolve_backend
from ..distances.base import get_distance
from ..errors import ConfigurationError, DatasetError
from ..validation import as_sequence


@dataclasses.dataclass
class KnnClassifier:
    """k-NN classifier over a fitted set of labelled series.

    Parameters
    ----------
    distance:
        A registered distance name (``"dtw"``); similarity scores
        (LCS) rank largest first, as the registry records.
    k:
        Neighbour count (1 reproduces the UCR evaluation protocol).
    distance_kwargs:
        Extra keyword arguments forwarded to every distance call
        (threshold, band, ...).
    backend:
        The :class:`repro.backends.DistanceBackend` (or name:
        ``"software"``, ``"accelerator"``, ``"pool"``) that executes
        the distance calls; ``None`` is the software reference.
        Scoring a query is one ``batch()`` call — on the accelerator
        and pool backends that is the row structure's 1-vs-many
        settle.
    """

    distance: str = "dtw"
    k: int = 1
    distance_kwargs: Optional[dict] = None
    backend: object = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        self._similarity = get_distance(self.distance).similarity
        self._backend = resolve_backend(self.backend)
        self._kwargs = dict(self.distance_kwargs or {})
        self._x: List[np.ndarray] = []
        self._y: Optional[np.ndarray] = None

    def fit(self, x: Sequence, y) -> "KnnClassifier":
        """Store the reference (training) series and labels."""
        self._x = [as_sequence(s, f"x[{i}]") for i, s in enumerate(x)]
        self._y = np.asarray(y)
        if len(self._x) != self._y.shape[0]:
            raise DatasetError("x and y lengths differ")
        if not self._x:
            raise DatasetError("training set is empty")
        return self

    def _scores(self, query: np.ndarray) -> np.ndarray:
        scores = np.asarray(
            self._backend.batch(
                self.distance, query, self._x, **self._kwargs
            )
        )
        return -scores if self._similarity else scores

    def kneighbors(self, query) -> np.ndarray:
        """Indices of the k nearest training instances."""
        if self._y is None:
            raise DatasetError("classifier is not fitted")
        q = as_sequence(query, "query")
        scores = self._scores(q)
        return np.argsort(scores, kind="stable")[: self.k]

    def predict_one(self, query) -> object:
        """Majority label among the k nearest neighbours."""
        idx = self.kneighbors(query)
        labels, counts = np.unique(self._y[idx], return_counts=True)
        return labels[int(np.argmax(counts))]

    def predict(self, queries: Sequence) -> np.ndarray:
        """Predict a label for each query series."""
        return np.array([self.predict_one(q) for q in queries])

    def score(self, queries: Sequence, labels) -> float:
        """Classification accuracy on a labelled set."""
        predictions = self.predict(queries)
        truth = np.asarray(labels)
        if truth.shape[0] != predictions.shape[0]:
            raise DatasetError("labels length mismatch")
        return float(np.mean(predictions == truth))


def leave_one_out_accuracy(
    x: Sequence,
    y,
    distance: str = "dtw",
    k: int = 1,
    backend=None,
    **distance_kwargs,
) -> float:
    """Leave-one-out 1-NN accuracy (the UCR benchmark protocol)."""
    x_arrs = [as_sequence(s) for s in x]
    y_arr = np.asarray(y)
    if len(x_arrs) != y_arr.shape[0]:
        raise DatasetError("x and y lengths differ")
    backend = resolve_backend(backend)
    correct = 0
    for i in range(len(x_arrs)):
        rest_x = x_arrs[:i] + x_arrs[i + 1 :]
        rest_y = np.concatenate([y_arr[:i], y_arr[i + 1 :]])
        clf = KnnClassifier(
            distance=distance,
            k=k,
            distance_kwargs=distance_kwargs,
            backend=backend,
        ).fit(rest_x, rest_y)
        if clf.predict_one(x_arrs[i]) == y_arr[i]:
            correct += 1
    return correct / len(x_arrs)
