"""Unified execution backends for the six distance functions.

:class:`DistanceBackend` is the only way a mining task reaches a
distance engine: every entry point of :mod:`repro.mining` takes a
registered function name plus ``backend=`` (``None`` is
:class:`SoftwareBackend`) and computes every distance through one of
three operations, mirroring how the paper's architecture is actually
exercised:

``compute``
    one distance (the matrix structure's unit of work),
``batch``
    one query against a candidate bank (the row structure's 1-vs-many
    settle — the throughput primitive),
``pairwise``
    a full distance matrix (clustering / k-medoids).

Three implementations ship: :class:`SoftwareBackend` (the reference
math), :class:`AcceleratorBackend` (one simulated chip), and
:class:`repro.serving.PoolBackend` (a sharded, batching, caching
accelerator pool).  Anything with the same three methods — a remote
service stub, a recorded-trace mock — slots in identically.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .distances.base import get_distance, pairwise_matrix
from .errors import ConfigurationError
from .validation import as_sequence

if TYPE_CHECKING:
    from .accelerator import DistanceAccelerator


@runtime_checkable
class DistanceBackend(Protocol):
    """What every distance execution engine must offer."""

    name: str

    def compute(
        self,
        function: str,
        p: ArrayLike,
        q: ArrayLike,
        *,
        weights: Optional[ArrayLike] = None,
        **kwargs: Any,
    ) -> float:
        """One distance between ``p`` and ``q``."""
        ...

    def batch(
        self,
        function: str,
        query: ArrayLike,
        candidates: Sequence[ArrayLike],
        *,
        weights: Optional[ArrayLike] = None,
        **kwargs: Any,
    ) -> NDArray[np.float64]:
        """Distances from ``query`` to every candidate."""
        ...

    def pairwise(
        self,
        function: str,
        series: Sequence[ArrayLike],
        **kwargs: Any,
    ) -> NDArray[np.float64]:
        """Symmetric distance matrix over ``series``."""
        ...


class SoftwareBackend:
    """The registry's reference implementations behind the protocol."""

    name = "software"

    def compute(
        self,
        function: str,
        p: ArrayLike,
        q: ArrayLike,
        *,
        weights: Optional[ArrayLike] = None,
        **kwargs: Any,
    ) -> float:
        fn = get_distance(function).fn
        if weights is not None:
            kwargs = dict(kwargs, weights=weights)
        return float(fn(p, q, **kwargs))

    def batch(
        self,
        function: str,
        query: ArrayLike,
        candidates: Sequence[ArrayLike],
        *,
        weights: Optional[ArrayLike] = None,
        **kwargs: Any,
    ) -> NDArray[np.float64]:
        return np.array(
            [
                self.compute(
                    function, query, c, weights=weights, **kwargs
                )
                for c in candidates
            ],
            dtype=np.float64,
        )

    def pairwise(
        self,
        function: str,
        series: Sequence[ArrayLike],
        **kwargs: Any,
    ) -> NDArray[np.float64]:
        return np.asarray(
            pairwise_matrix(function, list(series), **kwargs),
            dtype=np.float64,
        )


class AcceleratorBackend:
    """One simulated accelerator chip behind the protocol.

    Row-structure functions route 1-vs-many calls through the batched
    settle (:meth:`DistanceAccelerator.batch`); matrix functions (and
    rows too long for the chip's usable width) run one pair at a time
    on the array through :meth:`DistanceAccelerator.compute_many`,
    whose same-shape pairs share one vectorized settle on the host —
    exactly the dispatch the paper's control module performs.
    """

    name = "accelerator"

    def __init__(
        self, accelerator: "Optional[DistanceAccelerator]" = None
    ) -> None:
        if accelerator is None:
            from .accelerator import DistanceAccelerator

            accelerator = DistanceAccelerator()
        self.accelerator = accelerator

    def compute(
        self,
        function: str,
        p: ArrayLike,
        q: ArrayLike,
        *,
        weights: Optional[ArrayLike] = None,
        **kwargs: Any,
    ) -> float:
        return float(
            self.accelerator.compute(
                function, p, q, weights=weights, **kwargs
            ).value
        )

    def batch(
        self,
        function: str,
        query: ArrayLike,
        candidates: Sequence[ArrayLike],
        *,
        weights: Optional[ArrayLike] = None,
        **kwargs: Any,
    ) -> NDArray[np.float64]:
        from .accelerator.configurations import get_config

        config = get_config(function)
        q_arr = as_sequence(query, "query")
        if len(candidates) == 0:
            return np.empty(0)
        if (
            config.structure == "row"
            and q_arr.shape[0] <= self.accelerator.usable_cols
        ):
            return np.asarray(
                self.accelerator.batch(
                    function, q_arr, candidates, weights=weights, **kwargs
                ).values,
                dtype=np.float64,
            )
        results = self.accelerator.compute_many(
            function,
            [(q_arr, c) for c in candidates],
            weights=weights,
            **kwargs,
        )
        return np.array([r.value for r in results], dtype=np.float64)

    def pairwise(
        self,
        function: str,
        series: Sequence[ArrayLike],
        **kwargs: Any,
    ) -> NDArray[np.float64]:
        from .accelerator.configurations import get_config

        config = get_config(function)
        arrays = [
            as_sequence(s, f"series[{i}]") for i, s in enumerate(series)
        ]
        k = len(arrays)
        out = np.zeros((k, k))
        if config.structure == "row" and all(
            a.shape[0] <= self.accelerator.usable_cols for a in arrays
        ):
            # Row i against every later series: one settle across the
            # array rows (or a few passes) per row of the matrix.
            for i in range(k - 1):
                values = self.accelerator.batch(
                    config.name, arrays[i], arrays[i + 1 :], **kwargs
                ).values
                out[i, i + 1 :] = values
                out[i + 1 :, i] = values
            return out
        # One pair at a time on the array; same-shape pairs share one
        # vectorized settle on the host (see compute_many).
        index = [(i, j) for i in range(k) for j in range(i + 1, k)]
        results = self.accelerator.compute_many(
            config.name,
            [(arrays[i], arrays[j]) for i, j in index],
            **kwargs,
        )
        for (i, j), result in zip(index, results):
            out[i, j] = out[j, i] = result.value
        return out


def resolve_backend(
    backend: "Optional[DistanceBackend | str]",
) -> DistanceBackend:
    """Accept a backend object, a name, or ``None`` (software)."""
    if backend is None:
        return SoftwareBackend()
    if isinstance(backend, str):
        key = backend.strip().lower()
        if key == "software":
            return SoftwareBackend()
        if key == "accelerator":
            return AcceleratorBackend()
        if key == "pool":
            # Imported lazily: the serving layer imports this module.
            from .serving import PoolBackend

            return PoolBackend()
        if key == "resilient":
            from .serving.resilience import ResilientBackend

            return ResilientBackend()
        raise ConfigurationError(
            f"unknown backend {backend!r}; known: software, "
            "accelerator, pool, resilient"
        )
    if isinstance(backend, DistanceBackend):
        return backend
    raise ConfigurationError(
        f"object {backend!r} does not implement DistanceBackend "
        "(compute/batch/pairwise)"
    )
