"""Resilience primitives for the serving layer.

PR 3 taught the pool to *detect* sick silicon (BIST, quarantine,
recalibration).  This module is about what happens to the *requests*
while that machinery churns — the failure-handling contract the
paper's data-center pitch implies but never writes down:

* :class:`RetryPolicy` — seeded, deterministic exponential backoff
  with jitter, expressed in the pool's **virtual time**.  A shed
  request is not hammered back into the same saturated queue at the
  same instant; it re-arrives after a backoff that grows per attempt,
  so retries land once the congestion (or the quarantine storm) that
  shed them has drained.
* :class:`CircuitBreaker` — the classic closed / open / half-open
  state machine, per shard, driven by BIST verdicts, served error
  events (ADC overflow) and latency-SLO violations.  Its job is to
  rate-limit re-admission: a flapping shard that passes one BIST and
  fails the next does not get to bounce in and out of rotation at
  requalification speed — each trip doubles its virtual-time cooldown.
* :class:`ResilientBackend` — graceful degradation.  It composes any
  primary :class:`~repro.backends.DistanceBackend` (typically the
  pool) with the exact digital reference
  (:class:`~repro.backends.SoftwareBackend`): when the pool throws
  ``ShardUnhealthyError`` / ``CircuitOpenError`` / ``CapacityError``,
  the caller still gets correct distances — bit-identical to the
  software reference — tagged ``degraded`` in the backend's counters
  and the pool's metrics instead of an exception.  Mining entry
  points (`knn`, `subsequence`, clustering) speak the backend
  protocol, so they inherit the no-errors contract for free.

Everything here is deterministic under a fixed seed: backoff jitter
comes from an injectable :class:`numpy.random.Generator`, breaker
transitions depend only on the virtual clock, and the fallback is
exact math.  That is what lets the chaos harness
(:mod:`repro.serving.chaos`) assert SLOs as equalities, not
probabilities.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Deque, Dict, Optional, Sequence, Tuple

import numpy as np

from ..backends import SoftwareBackend
from ..errors import (
    CapacityError,
    ConfigurationError,
    DeadlineExceededError,
    ShardUnhealthyError,
)

#: Circuit breaker states, in the conventional naming.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff with jitter, in virtual time.

    Attributes
    ----------
    max_retries:
        Attempts after the first try before the caller gives up
        (``0`` disables retrying entirely).
    base_backoff_s:
        Virtual-second delay before the first retry.
    multiplier:
        Growth factor per attempt (``2.0`` doubles each round).
    max_backoff_s:
        Ceiling on a single backoff delay.
    jitter:
        Fractional spread: the raw delay is stretched by a factor
        drawn uniformly from ``[1, 1 + jitter)`` so synchronized
        retry waves de-correlate.  Draws come from the caller-held
        generator, so the schedule is reproducible per seed.
    seed:
        Seed for :meth:`rng`, the generator a holder of this policy
        should create once and thread through every
        :meth:`backoff_s` call.
    """

    max_retries: int = 32
    base_backoff_s: float = 1.0e-6
    multiplier: float = 2.0
    max_backoff_s: float = 1.0e-3
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.base_backoff_s < 0:
            raise ConfigurationError("base_backoff_s must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if self.max_backoff_s < self.base_backoff_s:
            raise ConfigurationError(
                "max_backoff_s must be >= base_backoff_s"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    def rng(self) -> np.random.Generator:
        """A fresh, seeded jitter generator for this policy."""
        return np.random.default_rng(self.seed)

    def backoff_s(
        self,
        attempt: int,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Delay before retry number ``attempt`` (0-based).

        Pass the same generator instance across calls for the
        deterministic-but-decorrelated schedule; without one the
        delay is the raw exponential value.
        """
        if attempt < 0:
            raise ConfigurationError("attempt must be >= 0")
        raw = min(
            self.base_backoff_s * self.multiplier**attempt,
            self.max_backoff_s,
        )
        if rng is not None and self.jitter > 0.0:
            raw *= 1.0 + self.jitter * float(rng.uniform())
        return raw

    def schedule(self) -> Tuple[float, ...]:
        """The full jittered backoff sequence for one fresh rng."""
        rng = self.rng()
        return tuple(
            self.backoff_s(attempt, rng)
            for attempt in range(self.max_retries)
        )


@dataclasses.dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs of one per-shard circuit breaker.

    The defaults reproduce the PR-3 behaviour exactly (a shard that
    requalifies after repair serves again immediately): zero base
    cooldown resolves ``open`` to ``half_open`` at once, and a single
    successful probe — the requalification BIST verdict — closes the
    breaker.  Deployments worried about flapping raise
    ``cooldown_s`` and ``half_open_successes``.

    Attributes
    ----------
    window:
        Sliding window of recent request outcomes examined in the
        closed state.
    failure_threshold:
        Failure fraction over the window that trips the breaker.
    min_samples:
        Outcomes required in the window before the rate is trusted.
    cooldown_s:
        Base virtual-time wait in ``open`` before probing resumes.
        Each successive trip doubles it (``cooldown_multiplier``),
        capped at ``max_cooldown_s`` — the flapping rate limit.
    cooldown_multiplier, max_cooldown_s:
        The growth law of the re-admission delay.
    half_open_probes:
        Requests admitted concurrently while half-open.
    half_open_successes:
        Consecutive successful probes needed to close.
    latency_slo_s:
        Optional per-request latency bound; a served request slower
        than this counts as a failure event even though its value
        was correct (tail-latency protection).
    """

    window: int = 16
    failure_threshold: float = 0.5
    min_samples: int = 4
    cooldown_s: float = 0.0
    cooldown_multiplier: float = 2.0
    max_cooldown_s: float = 1.0
    half_open_probes: int = 1
    half_open_successes: int = 1
    latency_slo_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ConfigurationError(
                "failure_threshold must be in (0, 1]"
            )
        if self.min_samples < 1:
            raise ConfigurationError("min_samples must be >= 1")
        if self.cooldown_s < 0:
            raise ConfigurationError("cooldown_s must be >= 0")
        if self.cooldown_multiplier < 1.0:
            raise ConfigurationError(
                "cooldown_multiplier must be >= 1"
            )
        if self.max_cooldown_s < self.cooldown_s:
            raise ConfigurationError(
                "max_cooldown_s must be >= cooldown_s"
            )
        if self.half_open_probes < 1:
            raise ConfigurationError("half_open_probes must be >= 1")
        if self.half_open_successes < 1:
            raise ConfigurationError(
                "half_open_successes must be >= 1"
            )
        if self.latency_slo_s is not None and self.latency_slo_s <= 0:
            raise ConfigurationError("latency_slo_s must be > 0")


class CircuitBreaker:
    """Closed / open / half-open request gate for one shard.

    All transitions are functions of the *virtual* clock the pool
    passes in — the breaker holds no wall-clock state, so replays are
    deterministic.  Trip count is retained across closes: a shard
    that flaps repeatedly waits exponentially longer each time it
    re-opens, which is the whole point.
    """

    def __init__(self, config: Optional[BreakerConfig] = None) -> None:
        self.config = config if config is not None else BreakerConfig()
        self._state = CLOSED
        self._opened_at = 0.0
        self._trips = 0
        self._outcomes: Deque[int] = deque(maxlen=self.config.window)
        self._probes_in_flight = 0
        self._probe_successes = 0

    # -- interrogation -------------------------------------------------------
    @property
    def trips(self) -> int:
        """Times this breaker has opened so far."""
        return self._trips

    def cooldown_s(self) -> float:
        """Current open-state wait, grown by the trips so far."""
        if self._trips == 0:
            return self.config.cooldown_s
        grown = self.config.cooldown_s * (
            self.config.cooldown_multiplier ** (self._trips - 1)
        )
        return min(grown, self.config.max_cooldown_s)

    @property
    def closed(self) -> bool:
        """Closed now?  (A closed breaker has no cooldown to resolve,
        so this holds at every later instant until an event opens it.)"""
        return self._state == CLOSED

    def failure_rate(self) -> float:
        """Failure fraction over the closed-state window."""
        if not self._outcomes:
            return 0.0
        return 1.0 - sum(self._outcomes) / len(self._outcomes)

    def state(self, now: float) -> str:
        """Resolve and return the state at virtual instant ``now``."""
        if (
            self._state == OPEN
            and now - self._opened_at >= self.cooldown_s()
        ):
            self._state = HALF_OPEN
            self._probes_in_flight = 0
            self._probe_successes = 0
        return self._state

    def available(self, now: float) -> bool:
        """May a new request be placed on this shard at ``now``?"""
        # A closed breaker stays closed as time passes: no cooldown to
        # resolve (this runs per shard on every placement).
        if self._state == CLOSED:
            return True
        if self.state(now) == HALF_OPEN:
            return (
                self._probes_in_flight
                < self.config.half_open_probes
            )
        return False

    # -- event feed ----------------------------------------------------------
    def acquire_probe(self, now: float) -> bool:
        """Claim a half-open probe slot (no-op when closed)."""
        if self._state == CLOSED:
            return True
        if (
            self.state(now) == HALF_OPEN
            and self._probes_in_flight < self.config.half_open_probes
        ):
            self._probes_in_flight += 1
            return True
        return False

    def on_success(self, now: float) -> None:
        """One request (or BIST probe) completed acceptably."""
        state = self.state(now)
        if state == HALF_OPEN:
            if self._probes_in_flight > 0:
                self._probes_in_flight -= 1
            self._probe_successes += 1
            if (
                self._probe_successes
                >= self.config.half_open_successes
            ):
                self._close()
        elif state == CLOSED:
            self._outcomes.append(1)
        # A success observed while OPEN (e.g. a settle admitted before
        # the trip completing afterwards) carries no information about
        # the cooled-down shard; ignore it.

    def on_failure(self, now: float) -> None:
        """One request failed (overflow, latency SLO, BIST flag)."""
        state = self.state(now)
        if state == HALF_OPEN:
            self.trip(now)
            return
        if state == CLOSED:
            self._outcomes.append(0)
            if (
                len(self._outcomes) >= self.config.min_samples
                and self.failure_rate()
                >= self.config.failure_threshold
            ):
                self.trip(now)

    def trip(self, now: float) -> None:
        """Open unconditionally (BIST condemnation, half-open flop)."""
        self._trips += 1
        self._state = OPEN
        self._opened_at = now
        self._outcomes.clear()
        self._probes_in_flight = 0
        self._probe_successes = 0

    def _close(self) -> None:
        self._state = CLOSED
        self._outcomes.clear()
        self._probes_in_flight = 0
        self._probe_successes = 0

    def snapshot(self, now: float) -> Dict[str, object]:
        """JSON-able view of the breaker at ``now``."""
        return {
            "state": self.state(now),
            "trips": self._trips,
            "cooldown_s": self.cooldown_s(),
            "failure_rate": self.failure_rate(),
            "opened_at_s": self._opened_at,
            "probe_successes": self._probe_successes,
        }


class ResilientBackend:
    """Primary backend with exact digital fallback on serving failure.

    Wraps any :class:`~repro.backends.DistanceBackend` (typically a
    :class:`~repro.serving.PoolBackend` or
    :class:`~repro.backends.AcceleratorBackend`) and degrades to the
    software reference when the analog side cannot answer:

    * ``ShardUnhealthyError`` — pool-wide quarantine;
    * ``CircuitOpenError`` — every placeable shard cooling down
      (caught via its ``ShardUnhealthyError`` parentage);
    * ``CapacityError`` — retries exhausted against shed traffic;
    * ``DeadlineExceededError`` — only when
      ``fallback_on_deadline`` is set, since a late answer may be
      worthless to the caller.

    Fallback results are *exact* — bit-identical to calling
    :class:`~repro.backends.SoftwareBackend` directly — so graceful
    degradation costs accuracy nothing; what it costs is the digital
    latency/energy profile, which is why every degraded request is
    counted (``degraded_requests`` here and, when the primary is a
    pool backend, in the pool's metrics registry) rather than hidden.

    With ``enable_fallback=False`` the wrapper is a transparent
    pass-through that still tallies primary errors: callers opt into
    fail-loud explicitly.
    """

    name = "resilient"

    def __init__(
        self,
        primary: Optional[Any] = None,
        fallback: Optional[Any] = None,
        enable_fallback: bool = True,
        fallback_on_deadline: bool = False,
    ) -> None:
        if primary is None:
            from ..backends import AcceleratorBackend

            primary = AcceleratorBackend()
        self.primary = primary
        self.fallback = (
            fallback if fallback is not None else SoftwareBackend()
        )
        self.enable_fallback = enable_fallback
        self.fallback_on_deadline = fallback_on_deadline
        self.served_requests = 0
        self.degraded_requests = 0
        self.primary_errors: Dict[str, int] = {}
        self.last_degraded = False

    def _fallback_exceptions(self) -> Tuple[type, ...]:
        kinds: Tuple[type, ...] = (ShardUnhealthyError, CapacityError)
        if self.fallback_on_deadline:
            kinds = kinds + (DeadlineExceededError,)
        return kinds

    def _run(self, op: str, n_requests: int, *args: Any, **kwargs: Any):
        self.served_requests += n_requests
        self.last_degraded = False
        try:
            return getattr(self.primary, op)(*args, **kwargs)
        except self._fallback_exceptions() as exc:
            name = type(exc).__name__
            self.primary_errors[name] = (
                self.primary_errors.get(name, 0) + 1
            )
            if not self.enable_fallback:
                raise
            self.last_degraded = True
            self.degraded_requests += n_requests
            self._tag_pool_degraded(n_requests)
            return getattr(self.fallback, op)(*args, **kwargs)

    def _tag_pool_degraded(self, n_requests: int) -> None:
        pool = getattr(self.primary, "pool", None)
        if pool is not None:
            pool.metrics.counter("degraded_requests").inc(n_requests)

    # -- DistanceBackend protocol --------------------------------------------
    def compute(
        self,
        function: str,
        p: Any,
        q: Any,
        *,
        weights: Optional[Any] = None,
        **kwargs: Any,
    ) -> float:
        return float(
            self._run(
                "compute", 1, function, p, q, weights=weights, **kwargs
            )
        )

    def batch(
        self,
        function: str,
        query: Any,
        candidates: Sequence[Any],
        *,
        weights: Optional[Any] = None,
        **kwargs: Any,
    ) -> np.ndarray:
        return np.asarray(
            self._run(
                "batch",
                len(candidates),
                function,
                query,
                candidates,
                weights=weights,
                **kwargs,
            ),
            dtype=np.float64,
        )

    def pairwise(
        self, function: str, series: Sequence[Any], **kwargs: Any
    ) -> np.ndarray:
        k = len(series)
        return np.asarray(
            self._run(
                "pairwise", k * (k - 1) // 2, function, series, **kwargs
            ),
            dtype=np.float64,
        )

    # -- reporting -----------------------------------------------------------
    @property
    def degraded_fraction(self) -> float:
        if self.served_requests == 0:
            return 0.0
        return self.degraded_requests / self.served_requests

    def snapshot(self) -> Dict[str, object]:
        """Degradation accounting, plus breaker states when the
        primary is a pool backend."""
        data: Dict[str, object] = {
            "backend": self.name,
            "primary": getattr(self.primary, "name", "unknown"),
            "enable_fallback": self.enable_fallback,
            "served_requests": self.served_requests,
            "degraded_requests": self.degraded_requests,
            "degraded_fraction": self.degraded_fraction,
            "primary_errors": dict(self.primary_errors),
        }
        pool = getattr(self.primary, "pool", None)
        if pool is not None:
            now = pool.virtual_now
            data["breakers"] = {
                shard.index: shard.breaker.snapshot(now)
                for shard in pool.shards
            }
            data["quarantined_shards"] = [
                shard.index
                for shard in pool.shards
                if shard.quarantined
            ]
        return data
