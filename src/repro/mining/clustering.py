"""k-medoids clustering for time series.

Clustering is one of the three mining tasks the paper targets
(Section 1).  k-medoids (PAM) is the standard choice for non-metric /
elastic distances like DTW, because centroids need not be averaged —
only pairwise distances are required, i.e. exactly what the accelerator
produces.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..backends import resolve_backend
from ..distances.base import get_distance
from ..errors import ConfigurationError, DatasetError
from ..validation import as_sequence


@dataclasses.dataclass
class ClusteringResult:
    """Outcome of a k-medoids run."""

    labels: np.ndarray
    medoid_indices: np.ndarray
    cost: float
    iterations: int
    converged: bool


def pairwise_distances(
    series: Sequence,
    distance: str = "dtw",
    backend=None,
    **distance_kwargs,
) -> np.ndarray:
    """Symmetric pairwise distance matrix for a collection of series.

    ``distance`` is a registered name; ``backend`` (a
    :class:`repro.backends.DistanceBackend` or name, ``None`` for the
    software reference) computes the matrix in one ``pairwise`` call.
    """
    similarity = get_distance(distance).similarity
    arrs = [as_sequence(s, f"series[{i}]") for i, s in enumerate(series)]
    out = resolve_backend(backend).pairwise(
        distance, arrs, **distance_kwargs
    )
    if similarity:
        # Negate and shift similarity values so the matrix is a
        # non-negative dissimilarity.
        out = -out
        out -= out.min()
        np.fill_diagonal(out, 0.0)
    return out


def k_medoids(
    distance_matrix: np.ndarray,
    n_clusters: int,
    max_iterations: int = 100,
    seed: int = 0,
) -> ClusteringResult:
    """PAM-style k-medoids on a precomputed distance matrix."""
    d = np.asarray(distance_matrix, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DatasetError("distance matrix must be square")
    n = d.shape[0]
    if not 1 <= n_clusters <= n:
        raise ConfigurationError(
            f"n_clusters must be in [1, {n}], got {n_clusters}"
        )
    rng = np.random.default_rng(seed)
    medoids = rng.choice(n, size=n_clusters, replace=False)

    def assign(meds: np.ndarray) -> "tuple[np.ndarray, float]":
        sub = d[:, meds]
        labels = np.argmin(sub, axis=1)
        cost = float(np.sum(sub[np.arange(n), labels]))
        return labels, cost

    labels, cost = assign(medoids)
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        improved = False
        for cluster in range(n_clusters):
            members = np.nonzero(labels == cluster)[0]
            if members.size == 0:
                continue
            in_cluster = d[np.ix_(members, members)]
            best_local = members[int(np.argmin(in_cluster.sum(axis=1)))]
            if best_local != medoids[cluster]:
                medoids[cluster] = best_local
                improved = True
        new_labels, new_cost = assign(medoids)
        if not improved and np.array_equal(new_labels, labels):
            converged = True
            labels, cost = new_labels, new_cost
            break
        labels, cost = new_labels, new_cost
    return ClusteringResult(
        labels=labels,
        medoid_indices=np.sort(medoids),
        cost=cost,
        iterations=iteration,
        converged=converged,
    )


def cluster_series(
    series: Sequence,
    n_clusters: int,
    distance: str = "dtw",
    seed: int = 0,
    backend=None,
    **distance_kwargs,
) -> ClusteringResult:
    """Convenience: pairwise matrix + k-medoids in one call."""
    matrix = pairwise_distances(
        series, distance, backend=backend, **distance_kwargs
    )
    return k_medoids(matrix, n_clusters, seed=seed)


def rand_index(labels_a, labels_b) -> float:
    """Rand index between two flat clusterings (1.0 = identical)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise DatasetError("label arrays must match in shape")
    n = a.shape[0]
    if n < 2:
        return 1.0
    agree = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            agree += int(same_a == same_b)
            total += 1
    return agree / total
