"""Common machinery for distance functions.

The paper's accelerator is *reconfigurable*: one circuit, six distance
functions.  The software side mirrors that with a small registry that
maps canonical names (``"dtw"``, ``"lcs"``, ...) to callables sharing
one signature, so the mining layer and the accelerator backend can be
swapped freely.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

import numpy as np

from ..errors import ConfigurationError

#: Signature shared by all registered distance functions:
#: ``fn(p, q, **kwargs) -> float``
DistanceFn = Callable[..., float]


@dataclasses.dataclass(frozen=True)
class DistanceInfo:
    """Metadata about a registered distance function.

    Attributes
    ----------
    name:
        Canonical lower-case identifier (``"dtw"``).
    fn:
        The distance callable.
    structure:
        ``"matrix"`` or ``"row"`` — the PE interconnect structure the
        accelerator uses for this function (Fig. 1 of the paper).
    supports_unequal_lengths:
        Whether ``len(p) != len(q)`` is accepted.
    similarity:
        ``True`` when *larger* values mean more similar (only LCS).
    complexity:
        ``"O(n^2)"`` or ``"O(n)"`` — drives the Fig. 6(b) analysis.
    """

    name: str
    fn: DistanceFn
    structure: str
    supports_unequal_lengths: bool
    similarity: bool
    complexity: str


_REGISTRY: Dict[str, DistanceInfo] = {}

#: Canonical ordering used throughout the evaluation harness; matches
#: the order the paper lists the functions in.
CANONICAL_ORDER = ("dtw", "lcs", "edit", "hausdorff", "hamming", "manhattan")

#: Aliases accepted by :func:`get_distance`.
ALIASES = {
    "dtw": "dtw",
    "lcs": "lcs",
    "edd": "edit",
    "edit": "edit",
    "edit_distance": "edit",
    "haud": "hausdorff",
    "hausdorff": "hausdorff",
    "hamd": "hamming",
    "hamming": "hamming",
    "md": "manhattan",
    "manhattan": "manhattan",
    "euclidean": "euclidean",
    "ed": "euclidean",
}


def register_distance(
    name: str,
    structure: str,
    supports_unequal_lengths: bool,
    similarity: bool = False,
    complexity: str = "O(n^2)",
) -> Callable[[DistanceFn], DistanceFn]:
    """Class/function decorator that registers a distance function."""
    if structure not in ("matrix", "row"):
        raise ConfigurationError(f"unknown PE structure {structure!r}")

    def decorator(fn: DistanceFn) -> DistanceFn:
        _REGISTRY[name] = DistanceInfo(
            name=name,
            fn=fn,
            structure=structure,
            supports_unequal_lengths=supports_unequal_lengths,
            similarity=similarity,
            complexity=complexity,
        )
        return fn

    return decorator


def canonical_name(name: str) -> str:
    """Resolve a distance alias to its canonical registry key."""
    if not isinstance(name, str):
        raise ConfigurationError(
            f"expected a registered distance name, got {name!r}"
        )
    key = ALIASES.get(name.strip().lower())
    if key is None:
        raise ConfigurationError(
            f"unknown distance function {name!r}; known: "
            + ", ".join(sorted(set(ALIASES)))
        )
    return key


def get_distance(name: str) -> DistanceInfo:
    """Look up a registered distance by name or alias."""
    key = canonical_name(name)
    if key not in _REGISTRY:
        raise ConfigurationError(f"distance {key!r} is not registered")
    return _REGISTRY[key]


def list_distances() -> list:
    """Return the canonical names of all registered distances."""
    return sorted(_REGISTRY)


def pairwise_matrix(
    name: str,
    series: "list[np.ndarray]",
    symmetric: bool = True,
    **kwargs,
) -> np.ndarray:
    """Compute the full pairwise distance matrix for a list of series.

    Convenience used by the clustering and classification tasks; the
    accelerator backend provides a drop-in replacement.
    """
    info = get_distance(name)
    k = len(series)
    out = np.zeros((k, k), dtype=np.float64)
    for i in range(k):
        start = i + 1 if symmetric else 0
        for j in range(start, k):
            if symmetric and j <= i:
                continue
            d = info.fn(series[i], series[j], **kwargs)
            out[i, j] = d
            if symmetric:
                out[j, i] = d
    return out
