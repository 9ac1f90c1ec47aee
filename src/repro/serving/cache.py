"""LRU result cache for distance queries.

Keys quantise the float inputs to a fixed grid (:data:`KEY_RESOLUTION`)
before hashing: two queries whose sequences differ by less than the
grid step hit the same entry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

#: Grid of the cache key, in sequence units.  It sits far below the
#: DAC's 0.05-unit LSB, so a cache hit is always at least as accurate
#: as re-running the analog array.
KEY_RESOLUTION = 1.0e-6


def quantise_key(values, resolution: float) -> bytes:
    """Stable byte key of a float array on a ``resolution`` grid."""
    arr = np.asarray(values, dtype=np.float64)
    # rint is np.round at zero decimals (half to even), without the
    # wrapper's dispatch.
    grid = np.rint(arr / resolution).astype(np.int64)
    return grid.tobytes()


def _quantised(values) -> bytes:
    if isinstance(values, bytes):
        return values
    return quantise_key(values, KEY_RESOLUTION)


class ResultCache:
    """Bounded LRU mapping quantised queries to distance values.

    ``capacity=0`` disables caching (every lookup misses and nothing
    is stored), which keeps the pool's call sites branch-free.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 0:
            raise ConfigurationError("capacity must be >= 0")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._store: "OrderedDict[Hashable, float]" = OrderedDict()

    def key(
        self,
        function: str,
        p,
        q,
        weights=None,
        extra: Tuple = (),
    ) -> Hashable:
        """Cache key of one query: function, inputs, weights, kwargs.

        ``p``, ``q`` and ``weights`` may also be given as their
        :func:`quantise_key` bytes, when the caller holds them already.
        """
        return (
            function,
            _quantised(p),
            _quantised(q),
            b"" if weights is None else _quantised(weights),
            tuple(extra),
        )

    def get(self, key: Hashable) -> Optional[float]:
        if self.capacity == 0:
            self.misses += 1
            return None
        value = self._store.get(key)
        if value is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: float) -> None:
        if self.capacity == 0:
            return
        if key in self._store:
            self._store.move_to_end(key)
        self._store[key] = float(value)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics survive).

        The pool invalidates wholesale when a shard is quarantined:
        any entry may have been produced by the faulted chip, and the
        key carries no provenance to invalidate selectively.
        """
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "size": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
