"""Lightweight serving metrics: counters, gauges, latency histograms.

No external dependency, no background threads — the pool increments
these inline and exports one JSON-able snapshot.  The histogram uses
fixed log-spaced buckets (1 ns .. 100 s), wide enough for both the
modelled analog latencies (tens of ns) and wall-clock replay times.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
from typing import Any, Dict, List, Optional, Sequence

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError


@dataclasses.dataclass
class Counter:
    """Monotonically increasing event count."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


@dataclasses.dataclass
class Gauge:
    """A sampled instantaneous value (e.g. per-shard utilisation)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclasses.dataclass
class StateGauge:
    """A sampled categorical value (e.g. a breaker's closed/open).

    Numeric gauges encode states poorly (dashboards end up decoding
    0/1/2 by convention); this keeps the label itself, exported under
    the snapshot's ``states`` section.
    """

    name: str
    value: str = ""

    def set(self, value: str) -> None:
        self.value = str(value)


class LatencyHistogram:
    """Log-bucketed histogram over positive measurements.

    Percentiles interpolate within the matched bucket, which is
    accurate to the bucket ratio (~26 % with 80 buckets over 11
    decades) — plenty for p50/p99 serving dashboards.
    """

    def __init__(
        self,
        name: str,
        low: float = 1.0e-9,
        high: float = 1.0e2,
        n_buckets: int = 80,
    ) -> None:
        if low <= 0 or high <= low:
            raise ConfigurationError("need 0 < low < high")
        if n_buckets < 1:
            raise ConfigurationError("need at least one bucket")
        self.name = name
        self.bounds = np.logspace(
            np.log10(low), np.log10(high), n_buckets + 1
        )
        self._edges: List[float] = self.bounds.tolist()
        self._last_bucket = n_buckets - 1
        # A list, not an array: ``record`` runs once or twice per
        # served request, and a NumPy scalar increment is slower.
        self._counts: List[int] = [0] * n_buckets
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        index = bisect.bisect_right(self._edges, value) - 1
        if index < 0:
            index = 0
        elif index > self._last_bucket:
            index = self._last_bucket
        self._counts[index] += 1

    def record_many(self, values: Sequence[float]) -> None:
        """:meth:`record` each of ``values`` in order, in one call.

        The state ends bit for bit as the sequential calls leave it:
        the total adds the values one at a time, left to right (not
        ``sum``, which compensates its float sums from Python 3.12),
        and ``min``/``max`` compare in the same order as the running
        extremes do.
        """
        floats = [float(value) for value in values]
        if not floats:
            return
        self.count += len(floats)
        total = self.total
        for value in floats:
            total += value
        self.total = total
        low, high = min(floats), max(floats)
        if self._min is None or low < self._min:
            self._min = low
        if self._max is None or high > self._max:
            self._max = high
        edges, last, counts = self._edges, self._last_bucket, self._counts
        for value in floats:
            index = bisect.bisect_right(edges, value) - 1
            if index < 0:
                index = 0
            elif index > last:
                index = last
            counts[index] += 1

    @property
    def counts(self) -> "npt.NDArray[np.int64]":
        """Observations per bucket (a fresh array)."""
        return np.array(self._counts, dtype=np.int64)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (0 <= q <= 100)."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        counts = self.counts
        cumulative = np.cumsum(counts)
        index = int(np.searchsorted(cumulative, rank, side="left"))
        index = min(index, counts.size - 1)
        lo, hi = self.bounds[index], self.bounds[index + 1]
        lo = max(lo, self._min if self._min is not None else lo)
        hi = min(hi, self._max if self._max is not None else hi)
        prior = cumulative[index - 1] if index > 0 else 0
        in_bucket = counts[index]
        frac = (
            (rank - prior) / in_bucket if in_bucket > 0 else 0.0
        )
        return float(lo + (hi - lo) * np.clip(frac, 0.0, 1.0))

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": int(self.count),
            "mean_s": self.mean,
            "min_s": float(self._min) if self._min is not None else 0.0,
            "max_s": float(self._max) if self._max is not None else 0.0,
            "p50_s": self.percentile(50.0),
            "p99_s": self.percentile(99.0),
        }


class MetricsRegistry:
    """Create-or-get store for the pool's counters/gauges/histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._states: Dict[str, StateGauge] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def state(self, name: str) -> StateGauge:
        if name not in self._states:
            self._states[name] = StateGauge(name)
        return self._states[name]

    def histogram(self, name: str, **kwargs: Any) -> LatencyHistogram:
        if name not in self._histograms:
            self._histograms[name] = LatencyHistogram(name, **kwargs)
        return self._histograms[name]

    def counter_names(self) -> List[str]:
        return sorted(self._counters)

    def as_dict(self) -> Dict[str, object]:
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "states": {
                name: self._states[name].value
                for name in sorted(self._states)
            },
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)
