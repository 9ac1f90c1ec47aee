"""Sharded accelerator pool: the data-center request path.

``AcceleratorPool`` is the serving layer the paper's Section 1 scenario
implies but never builds: N reconfigurable accelerator chips behind one
submit/drain interface, with

* **sharding** — least-loaded placement with same-function affinity
  (reconfiguration costs transmission-gate and memristor writes, so
  keeping a function resident on a shard is free throughput);
* **dynamic batching** — row-structure queries (hamming/manhattan)
  arriving within a window coalesce into one
  :meth:`DistanceAccelerator.batch_pairs` settle, the architecture's
  1-vs-many parallelism;
* **coalesced settles** — matrix-structure queries of one shape in a
  drain share one vectorized :meth:`DistanceAccelerator.compute_many`
  simulation per chip signature, while each keeps its own virtual-time
  schedule (host-side only; results are bit-identical);
* **result caching** — an LRU keyed on (function, quantised inputs,
  weights) absorbs repeated queries before they touch a shard;
* **bounded queues** — per-shard admission control sheds load instead
  of queueing unboundedly (overload protection);
* **online BIST & failover** — shards are periodically probed with
  golden vectors (:mod:`repro.faults.bist`); a shard whose measured
  error exceeds the health thresholds is quarantined, its in-flight
  batch re-admitted to healthy shards (rerouted through the retry
  policy), the result cache dropped (it may hold faulted values),
  and — when auto-repair is on — the chip is recalibrated
  (:mod:`repro.faults.repair`) and requalified before it serves
  again;
* **resilience** (:mod:`repro.serving.resilience`) — per-request
  virtual-time **deadlines** that propagate into batching windows and
  fail fast instead of settling doomed work; per-shard **circuit
  breakers** that rate-limit re-admission of flapping shards;
  optional **hedged requests** that race a second shard once the
  queue wait crosses a latency percentile and cancel the loser; and a
  seeded **retry policy** giving shed or quarantine-displaced
  requests exponential-backoff re-arrival times instead of hammering
  the same congested instant;
* **metrics** — counters, latency histograms and per-shard utilisation
  exported as dict/JSON (including the ``faults_*`` reliability
  counters, ``deadline_exceeded``, ``degraded_requests``, hedging
  counters and per-shard breaker states).

Scheduling runs in *virtual time*: every request carries an arrival
timestamp, service durations come from the accelerator's calibrated
(or measured) timing model, and the event loop replays the stream
deterministically.  The computations themselves are real — every
settle executes on the shard's simulated analog array — so the pool
returns true distance values while modelling data-center latency.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Hashable,
    List,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..accelerator import (
    AcceleratorResult,
    DistanceAccelerator,
    StackedPairs,
)
from ..accelerator.configurations import (
    FunctionConfig,
    get_config,
    service_s,
    settle_s,
    switch_s,
)
from ..accelerator.power import accelerator_power
from ..errors import (
    CapacityError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ShardUnhealthyError,
)
from ..validation import as_sequence, require_same_length
from .batcher import DynamicBatcher
from .cache import KEY_RESOLUTION, ResultCache, quantise_key
from .metrics import MetricsRegistry
from .resilience import BreakerConfig, CircuitBreaker, RetryPolicy

#: Most requests one coalesced settle solves: per-pair cost flattens
#: out around here (DTW n=16), and the cap bounds the ``(rows,
#: n_blocks)`` voltage arrays of one solve.
COALESCE_MAX_ROWS = 64

#: Request kwargs :meth:`DistanceAccelerator.compute_many` accepts.
_COALESCE_KWARGS = frozenset({"threshold", "band", "paper_errata"})

#: Drain order of requests (``(arrival_s, id)``) and of responses.
_ARRIVAL_ORDER = operator.attrgetter("arrival_s", "id")
_RESPONSE_ORDER = operator.attrgetter("request_id")

#: Counter each response status increments.
_STATUS_COUNTERS = {
    "ok": "served",
    "shed": "shed",
    "deadline": "deadline_exceeded",
}

#: Entries of the ``latency_model="measured"`` settle memo.  Keys
#: carry the chip signature, so every fault epoch adds entries; the
#: bound keeps a long fault campaign from growing it without limit.
_SETTLE_MEMO_CAPACITY = 1024

#: Caller inputs :meth:`AcceleratorPool._snapshot` remembers across
#: drains (and the caller arrays it keeps alive by doing so).
_INPUT_MEMO_CAPACITY = 1024


@dataclasses.dataclass(frozen=True)
class PoolConfig:
    """Tuning knobs of one pool deployment.

    Attributes
    ----------
    queue_depth:
        Maximum unfinished requests a shard accepts before shedding.
    batch_window_s:
        Virtual seconds a row-structure query waits for companions.
    max_batch:
        Flush a batch early once this many queries coalesced.
    enable_batching:
        Route row-structure queries through the dynamic batcher.
    cache_capacity:
        LRU entries (0 disables caching).
    latency_model:
        ``"calibrated"`` (per-element constants; fast) or
        ``"measured"`` (probe analog convergence per operating point).
    bist_interval_s:
        Virtual seconds between periodic BIST sweeps during ``drain``
        (0 disables scheduling; :meth:`AcceleratorPool.run_bist` can
        still be called explicitly).
    bist_vectors, bist_length:
        Probe-set size forwarded to the :class:`~repro.faults.bist.
        BistRunner`.
    bist_degraded_threshold, bist_failed_threshold:
        Relative-error health classification bounds.
    auto_repair:
        Recalibrate a flagged shard (re-tune drifted ratios, remap
        dead PEs, trim converter offsets) and requalify it before it
        serves again.  A shard still *failed* after repair stays
        quarantined.
    fault_max_retries:
        Times one in-flight request may be re-admitted to another
        shard *immediately* after its shard is quarantined.  Past
        that, re-admission is delayed through ``retry`` backoff — a
        request is only shed outright when no healthy shard exists.
    default_deadline_s:
        Optional per-request completion budget, in virtual seconds
        from arrival, applied when :meth:`AcceleratorPool.submit` is
        not given an explicit ``deadline_s`` (``None`` leaves
        requests deadline-free).
    retry:
        :class:`~repro.serving.resilience.RetryPolicy` spacing the
        re-arrival of quarantine-displaced requests.
    breaker:
        :class:`~repro.serving.resilience.BreakerConfig` applied to
        every shard's circuit breaker.  The default reproduces the
        pre-breaker behaviour (requalification re-admits at once);
        raise ``cooldown_s`` to rate-limit flapping shards.
    enable_hedging:
        Race a second shard when a request's projected queue wait
        exceeds the ``hedge_percentile`` of observed latency, taking
        the earlier projected finish and cancelling the loser before
        it settles.
    hedge_percentile, hedge_min_samples:
        The trigger percentile, and the minimum latency-histogram
        population before hedging activates (percentiles of a nearly
        empty histogram are noise).
    """

    queue_depth: int = 64
    batch_window_s: float = 2.0e-6
    max_batch: int = 32
    enable_batching: bool = True
    cache_capacity: int = 4096
    latency_model: str = "calibrated"
    bist_interval_s: float = 0.0
    bist_vectors: int = 2
    bist_length: int = 8
    bist_degraded_threshold: float = 0.01
    bist_failed_threshold: float = 0.10
    auto_repair: bool = True
    fault_max_retries: int = 3
    default_deadline_s: Optional[float] = None
    retry: RetryPolicy = dataclasses.field(default_factory=RetryPolicy)
    breaker: BreakerConfig = dataclasses.field(
        default_factory=BreakerConfig
    )
    enable_hedging: bool = False
    hedge_percentile: float = 95.0
    hedge_min_samples: int = 32

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ConfigurationError("queue_depth must be >= 1")
        if self.batch_window_s < 0:
            raise ConfigurationError("batch window must be >= 0")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.latency_model not in ("calibrated", "measured"):
            raise ConfigurationError(
                "latency_model must be 'calibrated' or 'measured'"
            )
        if self.bist_interval_s < 0:
            raise ConfigurationError("bist_interval_s must be >= 0")
        if not (
            0.0
            < self.bist_degraded_threshold
            < self.bist_failed_threshold
        ):
            raise ConfigurationError(
                "need 0 < bist_degraded_threshold "
                "< bist_failed_threshold"
            )
        if self.fault_max_retries < 0:
            raise ConfigurationError(
                "fault_max_retries must be >= 0"
            )
        if (
            self.default_deadline_s is not None
            and self.default_deadline_s <= 0
        ):
            raise ConfigurationError(
                "default_deadline_s must be > 0"
            )
        if not 50.0 <= self.hedge_percentile <= 100.0:
            raise ConfigurationError(
                "hedge_percentile must be in [50, 100]"
            )
        if self.hedge_min_samples < 1:
            raise ConfigurationError(
                "hedge_min_samples must be >= 1"
            )


@dataclasses.dataclass
class PoolRequest:
    """One queued distance query.

    ``deadline_s`` is an absolute virtual-time completion deadline
    (``None`` = unbounded); the pool fails requests fast once it is
    unreachable rather than settling doomed work.

    :meth:`AcceleratorPool.submit` fixes the request's identity once
    (``options``, ``structure``, ``settle_key``, ``cache_key``); every
    later decision — cache lookups and stores, batching, settle
    coalescing, the measured-settle memo, a quarantine re-admission —
    reads these fields instead of rebuilding them.
    """

    id: int
    function: str
    p: np.ndarray
    q: np.ndarray
    arrival_s: float
    weights: Optional[np.ndarray] = None
    kwargs: Dict = dataclasses.field(default_factory=dict)
    deadline_s: Optional[float] = None
    #: Batching hint derived from the deadline: latest instant this
    #: request's bucket may flush and still finish in time.
    flush_by_s: Optional[float] = None
    #: Sorted ``kwargs`` items: with ``function``, the batching key.
    options: Tuple = ()
    #: The function's PE structure, ``"row"`` or ``"matrix"``.
    structure: str = ""
    #: Everything that shapes the block graph the request settles: a
    #: weighted request programs a different conductance pattern than
    #: an unweighted one of the same lengths, and kwargs (threshold,
    #: band) change the comparator network.
    settle_key: Hashable = None
    #: Result-cache key (quantised inputs and weights, ``options``).
    cache_key: Hashable = None


@dataclasses.dataclass
class PoolResponse:
    """Outcome of one request.

    ``status`` is ``"ok"``, ``"shed"`` (rejected by admission
    control) or ``"deadline"`` (virtual-time deadline passed before a
    value could be delivered); ``value`` is ``None`` unless ``"ok"``.
    Cached responses complete at their arrival instant.  ``hedged``
    marks responses whose placement raced two shards.
    """

    request_id: int
    function: str
    status: str
    value: Optional[float]
    arrival_s: float
    start_s: float
    finish_s: float
    shard: Optional[int] = None
    cached: bool = False
    batched: bool = False
    batch_size: int = 1
    hedged: bool = False

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s


class _Shard:
    """One accelerator chip plus its queue-state bookkeeping."""

    def __init__(
        self,
        index: int,
        accelerator: DistanceAccelerator,
        config: PoolConfig,
    ) -> None:
        self.index = index
        self.accelerator = accelerator
        self.batcher = DynamicBatcher(
            window_s=config.batch_window_s,
            max_batch=min(
                config.max_batch, accelerator.params.array_rows
            ),
        )
        self.busy_until = 0.0
        self.busy_s = 0.0
        self.current_function: Optional[str] = None
        self.served = 0
        self.batches = 0
        self.health = "healthy"
        self.quarantined = False
        self.breaker = CircuitBreaker(config.breaker)
        self.last_bist_s: Optional[float] = None
        #: Finish instants of assigned work, oldest first.  Each
        #: execution starts no earlier than ``busy_until`` and moves it
        #: to its own finish, so the instants never decrease and the
        #: ones finished by any instant form a prefix.
        self._unfinished: Deque[float] = deque()

    def depth_at(self, now: float) -> int:
        """Unfinished work assigned to this shard at instant ``now``."""
        unfinished = self._unfinished
        while unfinished and unfinished[0] <= now:
            unfinished.popleft()
        return len(unfinished) + self.batcher.pending()

    def assign(self, finish_s: float, count: int = 1) -> None:
        self._unfinished.extend([finish_s] * count)


class AcceleratorPool:
    """N sharded accelerators behind one batching/caching front end."""

    def __init__(
        self,
        n_shards: int = 4,
        config: Optional[PoolConfig] = None,
        accelerator_factory: Optional[
            Callable[[], DistanceAccelerator]
        ] = None,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError("need at least one shard")
        self.config = config if config is not None else PoolConfig()
        self._factory = (
            accelerator_factory
            if accelerator_factory is not None
            else DistanceAccelerator
        )
        self.shards = [
            _Shard(i, self._factory(), self.config)
            for i in range(n_shards)
        ]
        # Startup ERC: a shard that passes construction may still have
        # been built by a custom factory with validation disabled, or
        # mutated afterwards — re-verify every chip before it serves.
        from ..check import check_accelerator

        for shard in self.shards:
            check_accelerator(shard.accelerator).raise_if_errors(
                f"AcceleratorPool startup (shard {shard.index})"
            )
        self.cache = ResultCache(capacity=self.config.cache_capacity)
        self.metrics = MetricsRegistry()
        self.responses: Dict[int, PoolResponse] = {}
        self._pending: List[PoolRequest] = []
        self._next_id = 0
        self._virtual_now = 0.0
        self._first_arrival: Optional[float] = None
        self._last_finish = 0.0
        self._settle_cache: Dict[Tuple, float] = {}
        # Per-drain settle coalescing state (see _compute).
        self._settle_groups: Dict[Hashable, List[PoolRequest]] = {}
        # Request id -> (settle key, row in its group).
        self._settle_key_of: Dict[int, Tuple[Hashable, int]] = {}
        self._settled_rows: Dict[
            Tuple[Optional[int], int], AcceleratorResult
        ] = {}
        self._signature_tokens: Dict[Hashable, int] = {}
        # Chip -> (fault epoch, token) (see _token).
        self._chip_tokens: Dict[
            DistanceAccelerator, Tuple[int, Optional[int]]
        ] = {}
        self._settle_stacks: Dict[
            Hashable, Tuple[np.ndarray, np.ndarray]
        ] = {}
        # Per-drain plan state (see _plan): answers whose bookkeeping
        # waits for the bulk completion, and each shard's service time
        # per settle key while its function stays resident.
        self._planned: List[Tuple] = []
        self._services: Dict[Tuple[int, Hashable], float] = {}
        # Inputs submitted, by caller object (see _snapshot), and
        # per-function lookups the request path repeats.
        self._inputs: Dict[
            int, Tuple[np.ndarray, np.ndarray, bytes, bytes]
        ] = {}
        self._configs: Dict[str, FunctionConfig] = {}
        self._power_w: Dict[str, float] = {}
        self._energy_j = 0.0
        self._row_busy_s = 0.0
        self._bist_runner = None
        self._last_bist_s = 0.0
        self._retries: Dict[int, int] = {}
        self._retry_rng = self.config.retry.rng()
        self.last_reports: Dict[int, object] = {}
        self.last_repairs: Dict[int, object] = {}
        # Every counter the pool increments exists (at zero) from the
        # first snapshot, so dashboards see each series before its
        # first event.
        for name in (
            "requests",
            "cache_hits",
            "cache_misses",
            "served",
            "shed",
            "reconfigurations",
            "batches",
            "batched_requests",
            "overflow",
            "faults_bist_runs",
            "faults_bist_detections",
            "faults_quarantined",
            "faults_requalified",
            "faults_retried",
            "faults_repaired_sites",
            "faults_dead_sites",
            "retry_backoffs",
            "deadline_exceeded",
            "degraded_requests",
            "hedges",
            "hedges_won",
            "shards_replaced",
        ):
            self.metrics.counter(name)
        self._requests = self.metrics.counter("requests")

    # -- client API ----------------------------------------------------------
    def submit(
        self,
        function: str,
        p,
        q,
        weights=None,
        arrival_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
        **kwargs,
    ) -> int:
        """Queue one query; returns its request id.

        ``arrival_s`` defaults to the pool's current virtual time, so
        offline callers can ignore timestamps entirely.  ``deadline_s``
        is an *absolute* virtual instant by which the answer must be
        ready; omitted, it falls back to arrival plus the pool's
        ``default_deadline_s`` budget (when configured).
        """
        config = self._configs.get(function)
        if config is None:
            config = self._configs[function] = get_config(function)
        p_arr, p_key = self._snapshot(p, "p")
        q_arr, q_key = self._snapshot(q, "q")
        if not config.supports_unequal_lengths:
            require_same_length(p_arr, q_arr)
        arrival = (
            float(arrival_s)
            if arrival_s is not None
            else self._virtual_now
        )
        if arrival < 0:
            raise ConfigurationError("arrival time must be >= 0")
        if deadline_s is not None:
            deadline: Optional[float] = float(deadline_s)
        elif self.config.default_deadline_s is not None:
            deadline = arrival + self.config.default_deadline_s
        else:
            deadline = None
        w = (
            None
            if weights is None
            else np.array(weights, dtype=np.float64)
        )
        options = tuple(sorted(kwargs.items())) if kwargs else ()
        # Positional, in field order: binding the fields by keyword
        # triples the cost of a constructor every request pays.
        request = PoolRequest(
            self._next_id,
            config.name,
            p_arr,
            q_arr,
            arrival,
            w,
            kwargs,
            deadline,
            None,
            options,
            config.structure,
            (
                config.name,
                p_arr.shape[0],
                q_arr.shape[0],
                None if w is None else (w.shape, w.tobytes()),
                options,
            ),
            self.cache.key(
                config.name, p_key, q_key, weights=w, extra=options
            ),
        )
        self._next_id += 1
        self._pending.append(request)
        self._requests.inc()
        return request.id

    def _snapshot(self, values, name: str) -> Tuple[np.ndarray, bytes]:
        """The pool's own copy of one input, and its cache-key bytes.

        A request keeps a copy, never the caller's buffer: a caller
        that refills its buffer after ``submit`` cannot change a queued
        request, nor the value it caches.  An ndarray the pool could
        have used as is (1-D, contiguous float64), submitted again
        unchanged, gets the same copy back without a second validation
        (a fan-out's query within a drain, a training set across
        drains).  That keeps one array object per caller object, which
        is what a row batch's DAC sharing keys on
        (:meth:`DistanceAccelerator.batch_pairs` loads each distinct
        input object once), so a 1-vs-many fan-out still drives every
        comparison from one query row.  The memo holds the caller's
        array, so its id cannot name another object while remembered;
        ``drain`` forgets it past ``_INPUT_MEMO_CAPACITY`` entries,
        never during a drain's own submits.
        """
        seen = self._inputs.get(id(values))
        if (
            seen is not None
            and seen[0] is values
            and values.shape == seen[1].shape
            and values.dtype is seen[1].dtype
            and values.tobytes() == seen[3]
        ):
            return seen[1], seen[2]
        checked = as_sequence(values, name)
        copy = checked.copy()
        key = quantise_key(copy, KEY_RESOLUTION)
        if checked is values:
            self._inputs[id(values)] = (values, copy, key, copy.tobytes())
        return copy, key

    def drain(self) -> List[PoolResponse]:
        """Serve every pending request; returns their responses.

        Requests are served in arrival order, on one of two paths.  A
        request of a settle group (see :meth:`_index_settles`) takes
        the plan loop (:meth:`_plan`), whose bookkeeping waits for one
        bulk completion (:meth:`_complete_planned`); every other
        request takes the sequential path (:meth:`_admit`).  The
        planned answers are completed, in request order, before
        anything of the sequential path runs (a request, a batch flush
        or a BIST sweep), so both paths leave the state one request at
        a time leaves, bit for bit.
        """
        requests = sorted(self._pending, key=_ARRIVAL_ORDER)
        self._pending = []
        if len(self._inputs) > _INPUT_MEMO_CAPACITY:
            self._inputs = {}
        if len(requests) > 1:
            self._index_settles(requests)
        grouped = self._settle_key_of
        interval = self.config.bist_interval_s
        # Only the sequential path adds to or flushes a batcher, so
        # this holds across a run of planned requests.
        flush_s = self._next_flush_s()
        index, count = 0, len(requests)
        try:
            while index < count:
                request = requests[index]
                now = request.arrival_s
                if self._first_arrival is None:
                    self._first_arrival = now
                if now >= flush_s or (
                    interval > 0 and now - self._last_bist_s >= interval
                ):
                    self._complete_planned()
                    self._maybe_bist(now)
                    self._flush(now)
                    flush_s = self._next_flush_s()
                if request.id in grouped:
                    index = self._plan(requests, index, flush_s)
                else:
                    self._complete_planned()
                    self._admit(request)
                    flush_s = self._next_flush_s()
                    index += 1
            self._complete_planned()
            self._flush()
        finally:
            self._complete_planned()
            self._settle_groups = {}
            self._settle_key_of = {}
            self._settled_rows = {}
            self._settle_stacks = {}
            self._signature_tokens = {}
            self._chip_tokens = {}
            self._services = {}
        self._virtual_now = max(self._virtual_now, self._last_finish)
        done = [self.responses[r.id] for r in requests]
        return sorted(done, key=_RESPONSE_ORDER)

    def serve(self, queries: Sequence[Tuple]) -> List[PoolResponse]:
        """Submit ``(function, p, q)``-style tuples and drain."""
        for query in queries:
            self.submit(*query)
        return self.drain()

    @property
    def virtual_now(self) -> float:
        return self._virtual_now

    # -- scheduling ----------------------------------------------------------
    def _plan(
        self, requests: List[PoolRequest], index: int, flush_s: float
    ) -> int:
        """The plan loop: place ``requests[index]``, a settle-group
        request, and each later one while the next is one too.

        Stops, returning the index of the first request not placed, at
        a request off the groups, or at one whose arrival a BIST sweep
        or a batch (due at ``flush_s``, see :meth:`_next_flush_s`)
        falls due at: those need the sequential path's events first.

        Each placement does what :meth:`_admit` and
        :meth:`_execute_single` do for a request with no deadline, no
        batching and no hedging: the cache lookup, the shard choice,
        shedding at a full queue and the ``start = max(arrival,
        busy_until)`` recurrence, with the settle taken from the
        group's shared solve (:meth:`_compute`).  Only what a later
        placement reads is booked at once (the shard's queue and
        ``busy_until``, a reconfiguration, the cached value); the
        answer joins the planned ones, which :meth:`_complete_planned`
        completes in bulk.  A settle that overflowed, or one on a shard
        whose breaker is not closed, needs its breaker verdict in
        order: it completes at once, after the planned answers.

        The shard scores (:meth:`_scores`) are kept from one placement
        to the next at the same arrival, function and options, with
        only the chosen shard's score updated: nothing else a score
        reads changes within the loop, except by a completion at once,
        which forgets them.
        """
        grouped = self._settle_key_of
        interval = self.config.bist_interval_s
        last_bist_s = self._last_bist_s
        queue_depth = self.config.queue_depth
        shards = self.shards
        cache_get = self.cache.get
        cache_put = self.cache.put
        settled_rows = self._settled_rows
        services = self._services
        planned = self._planned
        count = len(requests)
        scores: Optional[List[Tuple[int, int, float, int]]] = None
        scored: Tuple = ()
        while True:
            request = requests[index]
            index += 1
            arrival = request.arrival_s
            cached = cache_get(request.cache_key)
            if cached is not None:
                planned.append((request, None, cached, arrival, arrival, 0.0))
            else:
                function = request.function
                key = (arrival, function, request.options)
                if scores is None or key != scored:
                    scores = self._scores(request)
                    scored = key
                best = min(scores)
                depth = best[0]
                shard = shards[best[3]]
                if depth >= queue_depth:
                    planned.append(
                        (request, shard, None, arrival, arrival, 0.0)
                    )
                else:
                    breaker = shard.breaker
                    closed = breaker.closed
                    if not closed:
                        breaker.acquire_probe(arrival)
                    start = max(arrival, shard.busy_until)
                    acc = shard.accelerator
                    token = self._token(acc)
                    result = settled_rows.pop((token, request.id), None)
                    if result is None:
                        result = self._compute(acc, request, token)
                    n, m = request.p.shape[0], request.q.shape[0]
                    if shard.current_function != function:
                        service = service_s(
                            function,
                            n,
                            m,
                            acc.dac,
                            acc.adc,
                            self._reconfigure(shard, function)
                            + settle_s(function, n, m),
                        )
                    else:
                        # With no reconfiguration (reconfig + settle ==
                        # settle) the service time is one value per
                        # shard and settle key.
                        memo = (shard.index, request.settle_key)
                        service = services.get(memo)
                        if service is None:
                            service = services[memo] = service_s(
                                function, n, m, acc.dac, acc.adc
                            )
                    if result.overflow or not closed:
                        self._complete_planned()
                        planned = self._planned
                        scores = None
                        self.metrics.counter("cache_misses").inc()
                        self._complete(
                            shard,
                            [request],
                            [result.value],
                            result.overflow,
                            start,
                            service,
                        )
                    else:
                        finish = start + service
                        shard.busy_until = finish
                        shard.assign(finish)
                        # Its new score: one more unfinished settle
                        # (finishing after the arrival), the function
                        # resident, busy until the finish.
                        scores[scores.index(best)] = (
                            depth + 1,
                            0,
                            finish,
                            shard.index,
                        )
                        cache_put(request.cache_key, result.value)
                        planned.append(
                            (
                                request,
                                shard,
                                result.value,
                                start,
                                finish,
                                service,
                            )
                        )
            if index == count:
                return index
            following = requests[index]
            if (
                following.id not in grouped
                or following.arrival_s >= flush_s
                or (
                    interval > 0
                    and following.arrival_s - last_bist_s >= interval
                )
            ):
                return index

    def _next_flush_s(self) -> float:
        """Earliest instant a shard's batch falls due (``inf`` while no
        batcher holds work): before it, :meth:`_flush` has nothing to
        execute."""
        flush_s = math.inf
        for shard in self.shards:
            due = shard.batcher.next_deadline()
            if due is not None and due < flush_s:
                flush_s = due
        return flush_s

    def _admit(self, request: PoolRequest) -> None:
        cached = self.cache.get(request.cache_key)
        self.metrics.counter(
            "cache_hits" if cached is not None else "cache_misses"
        ).inc()
        if cached is not None:
            self._reply(request, "ok", value=cached, cached=True)
            return

        shard, depth = self._pick_shard(request)
        # Deadline fail-fast: when even the optimistic single-settle
        # estimate cannot land before the deadline, expire now instead
        # of burning a settle on a doomed request.
        if request.deadline_s is not None:
            estimate = service_s(
                request.function,
                request.p.shape[0],
                request.q.shape[0],
                shard.accelerator.dac,
                shard.accelerator.adc,
            )
            earliest = max(request.arrival_s, shard.busy_until) + estimate
            if (
                request.deadline_s < request.arrival_s
                or earliest > request.deadline_s
            ):
                self._reply(request, "deadline", shard)
                return
        if depth >= self.config.queue_depth:
            self._reply(request, "shed", shard)
            return

        shard.breaker.acquire_probe(request.arrival_s)
        if self._batchable(request, shard):
            flush_by = None
            if request.deadline_s is not None:
                flush_by = request.deadline_s - estimate
                request.flush_by_s = flush_by
            full = shard.batcher.add(
                (request.function, request.options),
                request,
                request.arrival_s,
                flush_by=flush_by,
            )
            if full is not None:
                self._execute_batch(shard, full, request.arrival_s)
        else:
            self._execute_single(shard, request)

    def _batchable(self, request: PoolRequest, shard: _Shard) -> bool:
        if not self.config.enable_batching:
            return False
        if request.structure != "row":
            return False
        # Usable width, not nominal: dead PEs shrink the batch row.
        if request.p.shape[0] > shard.accelerator.usable_cols:
            return False
        # Only kwargs the batched settle understands may coalesce.
        return set(request.kwargs) <= {"threshold"}

    def _active_shards(self) -> List[_Shard]:
        return [s for s in self.shards if not s.quarantined]

    def _placeable_shards(self, now: float) -> List[_Shard]:
        """Active shards whose breaker admits a request at ``now``."""
        return [
            s
            for s in self.shards
            if not s.quarantined and s.breaker.available(now)
        ]

    def _scores(
        self, request: PoolRequest
    ) -> List[Tuple[int, int, float, int]]:
        """Placement score of each placeable shard (see
        :meth:`_placeable_shards`) at the request's arrival: its queue
        depth, then 0 when the request's function is resident or
        batching there (else 1), then ``busy_until``, then its index.
        The least score places the request."""
        now = request.arrival_s
        function = request.function
        batch_key = (function, request.options)
        scores = []
        for shard in self.shards:
            if shard.quarantined or not shard.breaker.available(now):
                continue
            scores.append(
                (
                    shard.depth_at(now),
                    0
                    if shard.current_function == function
                    or shard.batcher.pending_for(batch_key)
                    else 1,
                    shard.busy_until,
                    shard.index,
                )
            )
        if not scores:
            self._no_shard(request)
        return scores

    def _pick_shard(self, request: PoolRequest) -> Tuple[_Shard, int]:
        """Least-scored shard (see :meth:`_scores`) and its queue depth
        at arrival."""
        depth, _, _, index = min(self._scores(request))
        return self.shards[index], depth

    def _no_shard(self, request: PoolRequest) -> NoReturn:
        """Raise why no shard can take ``request`` at its arrival."""
        active = self._active_shards()
        if not active:
            raise ShardUnhealthyError(
                f"all {len(self.shards)} shards are quarantined; "
                f"request {request.id} ({request.function}) cannot "
                "be served — repair or replace the pool"
            )
        raise CircuitOpenError(
            f"all {len(active)} active shards sit behind open "
            f"circuit breakers at t={request.arrival_s:.3g}s; "
            f"request {request.id} ({request.function}) must "
            "wait out the cooldown or degrade to the digital "
            "fallback"
        )

    def _flush(self, now: Optional[float] = None) -> None:
        """Execute every batch due at ``now`` (all of them if ``None``)."""
        for shard in self.shards:
            batcher = shard.batcher
            if not batcher.pending():
                continue
            ready = batcher.flush() if now is None else batcher.due(now)
            for _, items in ready:
                dispatch = batcher.dispatch_time(items, items[0].arrival_s)
                self._execute_batch(shard, items, dispatch)

    # -- reliability ---------------------------------------------------------
    def inject_faults(self, injector, indices=None) -> Dict[int, object]:
        """Stamp the injector's fault scenario onto shards.

        ``indices`` selects shards (default: all).  This is the
        experiment harness's act — it simulates nature degrading the
        chips — so nothing is quarantined here; detection is BIST's
        job.  Returns the attached fault states by shard index.
        """
        targets = (
            self.shards
            if indices is None
            else [self.shards[i] for i in indices]
        )
        return {
            shard.index: injector.inject(
                shard.accelerator, index=shard.index
            )
            for shard in targets
        }

    def _bist(self):
        if self._bist_runner is None:
            from ..faults.bist import BistRunner

            self._bist_runner = BistRunner(
                n_vectors=self.config.bist_vectors,
                length=self.config.bist_length,
                degraded_threshold=self.config.bist_degraded_threshold,
                failed_threshold=self.config.bist_failed_threshold,
            )
        return self._bist_runner

    def _maybe_bist(self, now: float) -> None:
        interval = self.config.bist_interval_s
        if interval <= 0:
            return
        if now - self._last_bist_s >= interval:
            self._flush(now)
            self.run_bist(now=now)

    def run_bist(self, now: Optional[float] = None) -> Dict[int, object]:
        """One golden-vector health sweep over the active shards.

        Flagged shards are quarantined (in-flight batches re-admitted
        to healthy shards, result cache dropped) and, with
        ``auto_repair``, recalibrated and requalified.  Returns the
        *detection* reports by shard index; post-repair status lands
        in ``shard.health`` and ``last_reports``.
        """
        now = self._virtual_now if now is None else float(now)
        self._last_bist_s = now
        runner = self._bist()
        reports: Dict[int, object] = {}
        for shard in self.shards:
            if shard.quarantined:
                continue
            report = runner.probe(shard.accelerator)
            self.metrics.counter("faults_bist_runs").inc()
            shard.last_bist_s = now
            shard.busy_until = (
                max(shard.busy_until, now) + report.modelled_time_s
            )
            shard.busy_s += report.modelled_time_s
            shard.health = report.status
            reports[shard.index] = report
            self.last_reports[shard.index] = report
            if report.is_healthy:
                shard.breaker.on_success(now)
                continue
            self.metrics.counter("faults_bist_detections").inc()
            self._quarantine(shard, now)
            if not self.config.auto_repair:
                continue
            if shard.accelerator.fault_state is None:
                continue
            self._repair(shard, runner, now)
        return reports

    def _repair(self, shard: _Shard, runner, now: float) -> None:
        """Recalibrate one quarantined shard and requalify it."""
        from ..faults.bist import FAILED
        from ..faults.repair import recalibrate

        repair = recalibrate(shard.accelerator)
        self.last_repairs[shard.index] = repair
        self.metrics.counter("faults_repaired_sites").inc(
            repair.n_retuned
        )
        self.metrics.counter("faults_dead_sites").inc(repair.n_dead)
        verdict = runner.probe(shard.accelerator)
        self.metrics.counter("faults_bist_runs").inc()
        shard.busy_until += verdict.modelled_time_s
        shard.busy_s += verdict.modelled_time_s
        shard.health = verdict.status
        self.last_reports[shard.index] = verdict
        if verdict.status != FAILED:
            shard.quarantined = False
            # The requalification verdict is the breaker's half-open
            # probe.  With the default zero cooldown this closes the
            # breaker at once (PR-3 behaviour); with a configured
            # cooldown the shard stays gated until it expires — the
            # flapping rate limit.
            shard.breaker.on_success(now)
            self.metrics.counter("faults_requalified").inc()

    def _quarantine(
        self, shard: _Shard, now: Optional[float] = None
    ) -> None:
        """Pull one shard out of service and drain its batcher.

        In-flight requests are re-admitted to other shards: the first
        ``fault_max_retries`` displacements of one request re-arrive
        immediately; later ones re-arrive after the pool's seeded
        ``retry`` backoff (so a flapping shard cannot make its
        displaced work hammer one congested instant).  A request is
        shed only when no active shard remains or the backoff budget
        is exhausted too.  The result cache is dropped wholesale — it
        may hold values the faulted chip produced.
        """
        if shard.quarantined:
            return
        now = self._virtual_now if now is None else float(now)
        shard.quarantined = True
        shard.breaker.trip(now)
        self.metrics.counter("faults_quarantined").inc()
        self.cache.clear()
        pending = [
            request
            for _, items in shard.batcher.flush()
            for request in items
        ]
        policy = self.config.retry
        for request in pending:
            retries = self._retries.get(request.id, 0)
            backoff_attempt = retries - self.config.fault_max_retries
            if not self._active_shards() or (
                backoff_attempt >= policy.max_retries
            ):
                self._reply(request, "shed", shard)
                continue
            self._retries[request.id] = retries + 1
            self.metrics.counter("faults_retried").inc()
            if backoff_attempt >= 0:
                # Immediate-retry budget spent: delay the re-arrival.
                delay = policy.backoff_s(
                    backoff_attempt, self._retry_rng
                )
                request.arrival_s = max(request.arrival_s, now) + delay
                self.metrics.counter("retry_backoffs").inc()
            try:
                self._admit(request)
            except ShardUnhealthyError:
                self._reply(request, "shed", shard)

    def replace_shard(
        self,
        index: int,
        accelerator: Optional[DistanceAccelerator] = None,
    ) -> _Shard:
        """Swap a fresh chip into one shard slot (hardware failover).

        Models the operator action a FAILED verdict calls for: the
        condemned chip comes out, a factory-fresh one (or the given
        ``accelerator``) goes in, and the slot re-enters rotation.
        The slot's circuit breaker deliberately survives replacement —
        a slot that keeps condemning chips points at the slot (socket,
        board, cooling), so its grown cooldown keeps rate-limiting
        re-admission until probes prove the new chip out.
        """
        from ..check import check_accelerator

        shard = self.shards[index]
        chip = (
            accelerator
            if accelerator is not None
            else self._factory()
        )
        check_accelerator(chip).raise_if_errors(
            f"AcceleratorPool.replace_shard (shard {index})"
        )
        shard.accelerator = chip
        shard.health = "healthy"
        shard.quarantined = False
        shard.current_function = None
        # Values from the old chip are stale.  (Settle probes need no
        # clearing: they are keyed by chip signature.)
        self.cache.clear()
        self.metrics.counter("shards_replaced").inc()
        return shard

    # -- execution -----------------------------------------------------------
    def _reconfigure(self, shard: _Shard, function: str) -> float:
        if shard.current_function == function:
            return 0.0
        cost = switch_s(shard.current_function, function)
        shard.current_function = function
        self.metrics.counter("reconfigurations").inc()
        return cost

    def _settle_time(
        self, shard: _Shard, request: PoolRequest
    ) -> float:
        """One analog settle at this request's operating point."""
        if self.config.latency_model == "calibrated":
            return settle_s(
                request.function, request.p.shape[0], request.q.shape[0]
            )
        # Settle time depends on the programmed graph and on the chip:
        # a faulted or recalibrated chip settles differently from a
        # healthy one, so the chip's value signature is part of the
        # key (read-disturbed chips, which have none, key on identity).
        acc = shard.accelerator
        chip = acc.value_signature()
        if chip is None:
            chip = (acc, acc.fault_epoch)
        key = (chip, request.settle_key)
        if key not in self._settle_cache:
            probe = acc.compute(
                request.function,
                request.p,
                request.q,
                weights=request.weights,
                measure_time=True,
                **request.kwargs,
            )
            if len(self._settle_cache) >= _SETTLE_MEMO_CAPACITY:
                # Oldest first: retired chips' entries never hit again.
                del self._settle_cache[next(iter(self._settle_cache))]
            self._settle_cache[key] = probe.convergence_time_s
        return self._settle_cache[key]

    def _index_settles(self, requests: List[PoolRequest]) -> None:
        """Group a drain's requests by settle key: each request of a
        group takes the plan loop (:meth:`_plan`).

        Only keys shared by two or more requests are kept: a lone
        request has nothing to share its settle with.  A request whose
        placement reads something produced during the drain stays on
        the sequential path and in no group: its deadline, the
        batcher's buckets (a row-structure request with batching on),
        the latency histogram (hedging), measured settle times, or a
        breaker's latency SLO verdicts.
        """
        config = self.config
        if (
            config.enable_hedging
            or config.latency_model != "calibrated"
            or config.breaker.latency_slo_s is not None
        ):
            return
        batching = config.enable_batching
        groups: Dict[Hashable, List[PoolRequest]] = {}
        for request in requests:
            if (
                request.deadline_s is not None
                or (batching and request.structure == "row")
                or (
                    request.kwargs
                    and not set(request.kwargs) <= _COALESCE_KWARGS
                )
            ):
                continue
            groups.setdefault(request.settle_key, []).append(request)
        self._settle_groups = {
            key: group for key, group in groups.items() if len(group) > 1
        }
        self._settle_key_of = {
            request.id: (key, row)
            for key, group in self._settle_groups.items()
            for row, request in enumerate(group)
        }

    def _compute(
        self,
        acc: DistanceAccelerator,
        request: PoolRequest,
        token: Optional[int],
    ) -> AcceleratorResult:
        """``acc``'s result for a settle-group request with no settled
        row under ``acc``'s ``token`` (see :meth:`_token`).

        The first request of a group to be placed on a chip solves, in
        one :meth:`DistanceAccelerator.compute_many` call, itself plus
        up to ``COALESCE_MAX_ROWS - 1`` of the group's later requests
        (the earlier ones are placed already).  The extra rows are kept
        under the chip's value signature, so a later request placed on
        any chip with the same signature takes its row instead of
        settling again; on a chip with another signature it settles
        anew.  Each row is bit-identical to ``acc.compute`` on that
        request; only the host-side simulation is shared.

        The group's inputs are stacked once per drain, the first time
        any of its requests settles; each ``compute_many`` takes its
        rows of those stacks as :class:`StackedPairs`, which ``submit``
        already validated row by row.
        """
        if token is None or not acc.vectorizes(
            request.function, request.p.shape[0], request.q.shape[0]
        ):
            return acc.compute(
                request.function,
                request.p,
                request.q,
                weights=request.weights,
                **request.kwargs,
            )
        key, row = self._settle_key_of[request.id]
        group = self._settle_groups[key]
        rows = [row]
        for k in range(row + 1, len(group)):
            if len(rows) >= COALESCE_MAX_ROWS:
                break
            if (token, group[k].id) not in self._settled_rows:
                rows.append(k)
        stacks = self._settle_stacks.get(key)
        if stacks is None:
            # The key fixes both lengths, so np.array stacks the rows
            # as np.stack would, at a third of its cost.
            stacks = self._settle_stacks[key] = (
                np.array([r.p for r in group]),
                np.array([r.q for r in group]),
            )
        if len(rows) < len(group):
            stacks = (stacks[0][rows], stacks[1][rows])
        results = acc.compute_many(
            request.function,
            StackedPairs(*stacks),
            weights=request.weights,
            **request.kwargs,
        )
        for k, result in zip(rows[1:], results[1:]):
            self._settled_rows[(token, group[k].id)] = result
        return results[0]

    def _token(self, acc: DistanceAccelerator) -> Optional[int]:
        """Small int naming ``acc``'s value signature in this drain
        (``None`` without one), under which settled rows are kept.

        A signature hashes its frozen parameter dataclasses on every
        lookup, so each chip's token is kept for its fault epoch: a
        fault, a repair or a recalibration bumps the epoch.
        """
        kept = self._chip_tokens.get(acc)
        if kept is not None and kept[0] == acc.fault_epoch:
            return kept[1]
        signature = acc.value_signature()
        token = (
            None
            if signature is None
            else self._signature_tokens.setdefault(
                signature, len(self._signature_tokens)
            )
        )
        self._chip_tokens[acc] = (acc.fault_epoch, token)
        return token

    def _maybe_hedge(
        self, shard: _Shard, request: PoolRequest
    ) -> Tuple[_Shard, bool]:
        """Race a second shard when the queue wait looks pathological.

        The race is analytic: both shards' projected start instants
        are known exactly in virtual time, so the pool places the
        settle on the winner and "cancels" the loser before it does
        any work (no energy, no busy time) — the modelled equivalent
        of a hedged RPC whose losing leg is torn down on first byte.
        """
        if not self.config.enable_hedging:
            return shard, False
        hist = self.metrics.histogram("latency")
        if hist.count < self.config.hedge_min_samples:
            return shard, False
        threshold = hist.percentile(self.config.hedge_percentile)
        projected = (
            max(request.arrival_s, shard.busy_until)
            - request.arrival_s
            + service_s(
                request.function,
                request.p.shape[0],
                request.q.shape[0],
                shard.accelerator.dac,
                shard.accelerator.adc,
            )
        )
        if projected <= threshold:
            return shard, False
        self.metrics.counter("hedges").inc()
        rivals = [
            s
            for s in self._placeable_shards(request.arrival_s)
            if s.index != shard.index
            and s.depth_at(request.arrival_s)
            < self.config.queue_depth
        ]
        if not rivals:
            return shard, True
        rival = min(
            rivals, key=lambda s: (s.busy_until, s.index)
        )
        if rival.busy_until < shard.busy_until:
            self.metrics.counter("hedges_won").inc()
            rival.breaker.acquire_probe(request.arrival_s)
            return rival, True
        return shard, True

    def _execute_single(
        self, shard: _Shard, request: PoolRequest
    ) -> None:
        shard, hedged = self._maybe_hedge(shard, request)
        start = max(request.arrival_s, shard.busy_until)
        reconfig = self._reconfigure(shard, request.function)
        result = shard.accelerator.compute(
            request.function,
            request.p,
            request.q,
            weights=request.weights,
            **request.kwargs,
        )
        service = service_s(
            request.function,
            request.p.shape[0],
            request.q.shape[0],
            shard.accelerator.dac,
            shard.accelerator.adc,
            reconfig + self._settle_time(shard, request),
        )
        self._complete(
            shard,
            [request],
            [result.value],
            result.overflow,
            start,
            service,
            hedged=hedged,
        )

    def _execute_batch(
        self,
        shard: _Shard,
        requests: List[PoolRequest],
        dispatch_s: float,
    ) -> None:
        start = max(dispatch_s, shard.busy_until)
        function = requests[0].function
        reconfig = self._reconfigure(shard, function)
        weights = (
            None
            if all(r.weights is None for r in requests)
            else [r.weights for r in requests]
        )
        result = shard.accelerator.batch_pairs(
            function,
            [(r.p, r.q) for r in requests],
            weights=weights,
            threshold=float(requests[0].kwargs.get("threshold", 0.0)),
        )
        settle = self._settle_time(
            shard, max(requests, key=lambda r: r.p.shape[0])
        )
        service = (
            reconfig
            + result.passes * settle
            + result.conversion_time_s
        )
        shard.batches += 1
        self.metrics.counter("batches").inc()
        self.metrics.counter("batched_requests").inc(len(requests))
        self.metrics.histogram(
            "batch_size", low=1.0, high=512.0, n_buckets=32
        ).record(len(requests))
        self._complete(
            shard,
            requests,
            result.values,
            result.overflow,
            start,
            service,
            batched=True,
        )

    def _complete(
        self,
        shard: _Shard,
        requests: List[PoolRequest],
        values: Sequence[float],
        overflow: bool,
        start_s: float,
        service_s: float,
        batched: bool = False,
        hedged: bool = False,
    ) -> None:
        """The one completion tail of every execution on ``shard``.

        Books the busy interval and energy, feeds the breaker its
        verdict (overflow, or the worst member latency over the SLO),
        caches every value, and answers each request — ``"deadline"``
        when the settle finished past its deadline, else ``"ok"``.
        A single request is the one-element batch.
        """
        count = len(requests)
        finish = start_s + service_s
        shard.busy_until = finish
        shard.busy_s += service_s
        shard.served += count
        shard.assign(finish, count)
        self._last_finish = max(self._last_finish, finish)
        function = requests[0].function
        self._energy_j += service_s * self._power(function)
        if requests[0].structure == "row":
            self._row_busy_s += service_s
        if overflow:
            self.metrics.counter("overflow").inc()
        slo = self.config.breaker.latency_slo_s
        if overflow or (
            slo is not None
            and finish - min(r.arrival_s for r in requests) > slo
        ):
            shard.breaker.on_failure(finish)
        else:
            shard.breaker.on_success(finish)
        for request, value in zip(requests, values):
            self.cache.put(request.cache_key, value)
            if (
                request.deadline_s is not None
                and finish > request.deadline_s
            ):
                self._reply(request, "deadline", shard, start_s, finish)
                continue
            self._reply(
                request,
                "ok",
                shard,
                start_s,
                finish,
                value=float(value),
                batched=batched,
                batch_size=count,
                hedged=hedged,
            )

    def _power(self, function: str) -> float:
        """Busy power (W) of a chip configured for ``function``."""
        power_w = self._power_w.get(function)
        if power_w is None:
            power_w = self._power_w[function] = accelerator_power(
                function
            ).total_w
        return power_w

    def _complete_planned(self) -> None:
        """The bulk completion of the planned answers (see :meth:`_plan`).

        In request order: the busy time, served count, energy and
        breaker success of each executed request, and each answer's
        :class:`PoolResponse` (an executed request answers ``"ok"`` at
        its finish, a cache hit at its arrival, a shed request with no
        value).  Then each status and cache counter goes up once by its
        tally, and each latency histogram takes its answers' latencies
        in one :meth:`~repro.serving.metrics.LatencyHistogram.
        record_many` — the state :meth:`_complete` and :meth:`_reply`
        leave one request at a time.
        """
        planned = self._planned
        if not planned:
            return
        self._planned = []
        store = self.responses
        latencies: List[float] = []
        functions: List[str] = []
        hits = served = 0
        energy_j = self._energy_j
        row_busy_s = self._row_busy_s
        last_finish = self._last_finish
        power_w = self._power_w
        for request, shard, value, start, finish, service in planned:
            arrival = request.arrival_s
            function = request.function
            if shard is None:
                hits += 1
                status, index = "ok", None
            elif value is None:
                status, index = "shed", shard.index
            else:
                served += 1
                status, index = "ok", shard.index
                value = float(value)
                shard.busy_s += service
                shard.served += 1
                if finish > last_finish:
                    last_finish = finish
                power = power_w.get(function)
                if power is None:
                    power = self._power(function)
                energy_j += service * power
                if request.structure == "row":
                    row_busy_s += service
                shard.breaker.on_success(finish)
            # Positional, in field order (see ``submit``).
            store[request.id] = PoolResponse(
                request.id,
                function,
                status,
                value,
                arrival,
                start,
                finish,
                index,
                shard is None,
                False,
                1,
                False,
            )
            if value is not None:
                latencies.append(finish - arrival)
                functions.append(function)
        self._energy_j = energy_j
        self._row_busy_s = row_busy_s
        self._last_finish = last_finish
        counter = self.metrics.counter
        shed = len(planned) - hits - served
        for name, tally in (
            ("cache_hits", hits),
            ("cache_misses", served + shed),
            ("served", hits + served),
            ("shed", shed),
        ):
            if tally:
                counter(name).inc(tally)
        if latencies:
            histogram = self.metrics.histogram
            histogram("latency").record_many(latencies)
            names = dict.fromkeys(functions)
            for name in names:
                histogram(f"latency.{name}").record_many(
                    latencies
                    if len(names) == 1
                    else [
                        latency
                        for latency, function in zip(latencies, functions)
                        if function == name
                    ]
                )

    def _reply(
        self,
        request: PoolRequest,
        status: str,
        shard: Optional[_Shard] = None,
        start_s: Optional[float] = None,
        finish_s: Optional[float] = None,
        value: Optional[float] = None,
        cached: bool = False,
        batched: bool = False,
        batch_size: int = 1,
        hedged: bool = False,
    ) -> None:
        """Answer ``request`` and count it under its ``status``.

        Times default to the arrival instant (cache hits, admission
        shedding and fail-fast expiry never occupy a shard).
        """
        arrival = request.arrival_s
        # Positional, in field order (see ``submit``).
        response = PoolResponse(
            request.id,
            request.function,
            status,
            value,
            arrival,
            arrival if start_s is None else start_s,
            arrival if finish_s is None else finish_s,
            None if shard is None else shard.index,
            cached,
            batched,
            batch_size,
            hedged,
        )
        self.responses[request.id] = response
        self.metrics.counter(_STATUS_COUNTERS[status]).inc()
        if status == "ok":
            self.metrics.histogram("latency").record(response.latency_s)
            self.metrics.histogram(
                f"latency.{request.function}"
            ).record(response.latency_s)

    # -- reporting -----------------------------------------------------------
    @property
    def makespan_s(self) -> float:
        if self._first_arrival is None:
            return 0.0
        return max(self._last_finish - self._first_arrival, 0.0)

    @property
    def energy_j(self) -> float:
        return self._energy_j

    @property
    def row_busy_s(self) -> float:
        """Busy seconds spent in row-structure settles (batch or not)."""
        return self._row_busy_s

    def utilisations(self) -> List[float]:
        makespan = self.makespan_s
        if makespan <= 0:
            return [0.0 for _ in self.shards]
        return [
            min(shard.busy_s / makespan, 1.0) for shard in self.shards
        ]

    def snapshot(self) -> Dict:
        """Full metrics export (counters, histograms, shards, cache)."""
        now = self._virtual_now
        for shard, utilisation in zip(
            self.shards, self.utilisations()
        ):
            gauge = self.metrics.gauge(
                f"shard{shard.index}.utilisation"
            )
            gauge.set(utilisation)
            self.metrics.state(f"shard{shard.index}.breaker").set(
                shard.breaker.state(now)
            )
        self.metrics.gauge("faults_healthy_shards").set(
            len(self._active_shards())
        )
        data = self.metrics.as_dict()
        data["shards"] = [
            {
                "index": shard.index,
                "served": shard.served,
                "batches": shard.batches,
                "busy_s": shard.busy_s,
                "current_function": shard.current_function,
                "health": shard.health,
                "quarantined": shard.quarantined,
                "breaker": shard.breaker.snapshot(now),
                "last_bist_s": shard.last_bist_s,
                "faults": (
                    shard.accelerator.fault_state.summary()
                    if shard.accelerator.fault_state is not None
                    else None
                ),
                "template_cache": (
                    shard.accelerator.template_cache_info()
                ),
            }
            for shard in self.shards
        ]
        data["cache"] = self.cache.as_dict()
        data["makespan_s"] = self.makespan_s
        data["energy_j"] = self._energy_j
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        import json

        return json.dumps(self.snapshot(), indent=indent)


class PoolBackend:
    """:class:`AcceleratorPool` behind the DistanceBackend protocol.

    Lets the mining layer route template-bank searches through the
    pool: a ``batch`` call submits one request per candidate and
    drains them together, so they coalesce (see :meth:`batch`).
    Requests shed by admission control are re-submitted with seeded
    exponential-backoff re-arrival times (the pool's ``retry`` policy,
    allowing ``max_retries`` rounds); a request whose deadline passes
    raises :class:`~repro.errors.DeadlineExceededError`.

    ``pacing_s`` spaces the virtual arrivals of a multi-request call
    (0 submits everything at one instant, the legacy behaviour);
    ``deadline_s`` attaches a per-request completion budget, measured
    from each request's own arrival.
    """

    name = "pool"

    def __init__(
        self,
        pool: Optional[AcceleratorPool] = None,
        max_retries: int = 32,
        pacing_s: float = 0.0,
        deadline_s: Optional[float] = None,
    ) -> None:
        self.pool = pool if pool is not None else AcceleratorPool()
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if pacing_s < 0:
            raise ConfigurationError("pacing_s must be >= 0")
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError("deadline_s must be > 0")
        self.retry_policy = dataclasses.replace(
            self.pool.config.retry, max_retries=max_retries
        )
        self.pacing_s = float(pacing_s)
        self.deadline_s = deadline_s
        self._rng = self.retry_policy.rng()

    def _submit(
        self, function, p, q, weights, kwargs, arrival_s: float
    ) -> int:
        deadline = (
            None
            if self.deadline_s is None
            else arrival_s + self.deadline_s
        )
        return self.pool.submit(
            function,
            p,
            q,
            weights=weights,
            arrival_s=arrival_s,
            deadline_s=deadline,
            **kwargs,
        )

    def _serve(
        self, function: str, pairs: Sequence, weights, kwargs: Dict
    ) -> np.ndarray:
        """Submit ``pairs`` at paced virtual arrivals, then resolve
        their values in order.

        No pairs, no drain: an empty call must not serve requests
        other callers queued on the shared pool.
        """
        if len(pairs) == 0:
            return np.empty(0)
        base = self.pool.virtual_now
        submitted = []
        for index, (p, q) in enumerate(pairs):
            args = (function, p, q, weights, kwargs)
            rid = self._submit(
                *args, arrival_s=base + index * self.pacing_s
            )
            submitted.append((rid, (index, args)))
        return self._resolve(submitted)

    def _resolve(self, submitted: List[Tuple[int, Tuple]]) -> np.ndarray:
        """Drain; retry shed requests until all values materialise.

        Each retry round re-submits the shed requests with a fresh
        backoff-delayed arrival, so they land after the congestion
        that shed them has drained rather than at the same instant.
        """
        values: Dict[int, float] = {}
        pending = dict(submitted)
        policy = self.retry_policy
        for attempt in range(policy.max_retries + 1):
            responses = self.pool.drain()
            shed: Dict[int, Tuple] = {}
            for response in responses:
                if response.request_id not in pending:
                    continue
                slot = pending.pop(response.request_id)
                if response.status == "ok":
                    values[slot[0]] = response.value
                elif response.status == "deadline":
                    raise DeadlineExceededError(
                        f"request {response.request_id} "
                        f"({response.function}) missed its "
                        "virtual-time deadline "
                        f"(arrival {response.arrival_s:.3g}s)"
                    )
                else:
                    shed[slot[0]] = slot[1]
            if not shed and not pending:
                break
            for slot, args in shed.items():
                delay = policy.backoff_s(
                    min(attempt, policy.max_retries), self._rng
                )
                rid = self._submit(
                    *args, arrival_s=self.pool.virtual_now + delay
                )
                pending[rid] = (slot, args)
        if pending:
            raise CapacityError(
                f"{len(pending)} requests still shed after "
                f"{policy.max_retries} retries; deepen the pool queues"
            )
        return np.array(
            [values[i] for i in range(len(submitted))]
        )

    def compute(
        self, function: str, p, q, *, weights=None, **kwargs
    ) -> float:
        return float(self._serve(function, [(p, q)], weights, kwargs)[0])

    def batch(
        self,
        function: str,
        query,
        candidates: Sequence,
        *,
        weights=None,
        **kwargs,
    ) -> np.ndarray:
        """Distances from ``query`` to every candidate, in one drain.

        Row-structure candidates coalesce in the dynamic batcher;
        matrix-structure fan-outs (1-NN DTW, LCS, ...) share one
        vectorized settle simulation per chip signature (see
        :meth:`AcceleratorPool._compute`).
        """
        pairs = [(query, candidate) for candidate in candidates]
        return self._serve(function, pairs, weights, kwargs)

    def pairwise(
        self, function: str, series: Sequence, **kwargs
    ) -> np.ndarray:
        arrays = [
            as_sequence(s, f"series[{i}]")
            for i, s in enumerate(series)
        ]
        k = len(arrays)
        slots = [(i, j) for i in range(k) for j in range(i + 1, k)]
        pairs = [(arrays[i], arrays[j]) for i, j in slots]
        values = self._serve(function, pairs, None, kwargs)
        out = np.zeros((k, k))
        for (i, j), value in zip(slots, values):
            out[i, j] = out[j, i] = value
        return out
