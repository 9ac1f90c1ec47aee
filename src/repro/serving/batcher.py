"""Dynamic batching of row-structure queries.

The row structure computes up to ``array_rows`` independent
comparisons in *one* analog settle, so the cheapest way to serve a
burst of hamming/manhattan queries is to hold each one briefly and
coalesce everything that arrived within a small window into a single
:meth:`DistanceAccelerator.batch_pairs` call.  The batcher is
deliberately passive — it holds items and answers "what is due now" —
so the pool's virtual-time event loop (or a future async loop) owns
all scheduling decisions.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Optional, Tuple

from ..errors import ConfigurationError


@dataclasses.dataclass
class _Bucket:
    items: List[object]
    opened_s: float
    #: Earliest member-imposed flush instant (deadline propagation);
    #: +inf when no member carries one.
    flush_by_s: float = float("inf")


class DynamicBatcher:
    """Groups items per key until a window expires or a batch fills.

    Keys partition requests that can share a settle (same function and
    identical extra kwargs); items are whatever the caller wants back.
    """

    def __init__(
        self, window_s: float = 2.0e-6, max_batch: int = 32
    ) -> None:
        if window_s < 0:
            raise ConfigurationError("window must be >= 0")
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        self.window_s = window_s
        self.max_batch = max_batch
        self._buckets: Dict[Hashable, _Bucket] = {}
        #: Items across all buckets (kept, not summed: the pool asks
        #: for it on every placement).
        self._size = 0

    def add(
        self,
        key: Hashable,
        item,
        now: float,
        flush_by: Optional[float] = None,
    ) -> Optional[List]:
        """Queue ``item``; return a full batch if this add filled one.

        ``flush_by`` is a member-imposed flush instant — typically a
        request deadline minus its estimated service time.  The
        bucket becomes due at the *earliest* of its window expiry and
        the tightest member ``flush_by``, so a deadlined request
        never idles in a coalescing window past the point where it
        could still be answered in time.
        """
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = _Bucket(items=[], opened_s=now)
            self._buckets[key] = bucket
        bucket.items.append(item)
        self._size += 1
        if flush_by is not None:
            bucket.flush_by_s = min(bucket.flush_by_s, flush_by)
        if len(bucket.items) >= self.max_batch:
            return self._pop(key)
        return None

    def _pop(self, key: Hashable) -> List:
        items = self._buckets.pop(key).items
        self._size -= len(items)
        return items

    def _expiry_s(self, bucket: _Bucket) -> float:
        return min(
            bucket.opened_s + self.window_s, bucket.flush_by_s
        )

    def due(self, now: float) -> List[Tuple[Hashable, List]]:
        """Pop every bucket whose window (or member deadline) has
        expired at ``now``."""
        ready = [
            key
            for key, bucket in self._buckets.items()
            if now >= self._expiry_s(bucket)
        ]
        return [(key, self._pop(key)) for key in ready]

    def flush(self) -> List[Tuple[Hashable, List]]:
        """Pop everything, regardless of age (end of stream)."""
        out = [
            (key, bucket.items)
            for key, bucket in self._buckets.items()
        ]
        self._buckets.clear()
        self._size = 0
        return out

    def pending(self) -> int:
        """Number of queued items across all buckets."""
        return self._size

    def pending_for(self, key: Hashable) -> int:
        bucket = self._buckets.get(key)
        return len(bucket.items) if bucket is not None else 0

    def next_deadline(self) -> Optional[float]:
        """Earliest instant a bucket becomes due, if any are open."""
        if not self._buckets:
            return None
        return min(
            self._expiry_s(b) for b in self._buckets.values()
        )

    def dispatch_time(
        self, items: List, first_arrival_s: float
    ) -> float:
        """Modelled dispatch instant of a flushed batch.

        The expiry the bucket *would* have had: window end, tightened
        by any member flush-by instant.  Used by the pool to start
        the settle no later than the batch actually became due.
        """
        flush_by = min(
            (
                fb
                for item in items
                if (fb := getattr(item, "flush_by_s", None))
                is not None
            ),
            default=float("inf"),
        )
        return min(first_arrival_s + self.window_s, flush_by)
