"""Chaos harness: prove the resilience layer under seeded failure.

Fault-injection campaigns (:mod:`repro.faults.campaign`) ask whether
the *reliability* machinery keeps answers right; this module asks the
complementary serving question — when the pool misbehaves in the ways
data centers actually see, do *callers* still get answers inside the
SLO?  Five seeded scenarios drive a
:class:`~repro.serving.resilience.ResilientBackend` (pool primary,
exact digital fallback) through a 1-NN retrieval workload:

``shard_death``
    A shard is condemned by BIST mid-batch (its batcher still holds
    work), then the remaining shard dies too.  Displaced requests
    must re-route, and total loss must degrade to the software
    fallback instead of erroring.
``drift_storm``
    Every shard ages at once; detection, recalibration and
    requalification must restore served accuracy.
``queue_saturation``
    A single shard with a one-deep queue against a burst: shed
    requests re-arrive with seeded backoff, and a second pass with a
    hopeless deadline budget must fail fast into the fallback rather
    than queue forever.
``cache_storm``
    Repeated quarantines invalidate the result cache while a hot
    query set replays; values must stay correct through every flush,
    down to the all-shards-dead fallback.
``flapping_shard``
    One shard alternates between faulted and repaired.  The circuit
    breaker must trip repeatedly and its cooldown must *grow*, so the
    flapper is rate-limited instead of bouncing back at
    requalification speed.

Every scenario is deterministic under its seed (virtual time, seeded
injection, seeded backoff jitter, analytic hedging), so the SLO gate
— availability >= 99.9 %, p99 latency bound, 1-NN accuracy gap <= 1 %
— is an exact assertion, not a flake budget.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..accelerator import DistanceAccelerator
from ..accelerator.params import PAPER_PARAMS
from ..backends import SoftwareBackend
from ..baselines.cpu import modelled_cpu_time
from ..datasets import retrieval_workload
from ..errors import ConfigurationError
from ..faults.inject import FaultInjector
from ..faults.models import DriftFault, StuckAtFault
from .pool import AcceleratorPool, PoolBackend, PoolConfig
from .resilience import BreakerConfig, ResilientBackend, RetryPolicy

#: The serving function every scenario stresses (row structure, so it
#: exercises batching; exact in software, so the fallback is truth).
FUNCTION = "manhattan"

#: Fault scenario harsh enough that one BIST sweep always flags it.
_KILL = (
    StuckAtFault(rate=0.05),
    DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003),
)
_DRIFT = (
    DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003),
)


@dataclasses.dataclass(frozen=True)
class SloSpec:
    """The serving objectives every scenario is gated on."""

    availability_min: float = 0.999
    p99_latency_max_s: float = 1.0e-3
    accuracy_gap_max: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.availability_min <= 1.0:
            raise ConfigurationError(
                "availability_min must be in (0, 1]"
            )
        if self.p99_latency_max_s <= 0:
            raise ConfigurationError(
                "p99_latency_max_s must be > 0"
            )
        if not 0.0 <= self.accuracy_gap_max <= 1.0:
            raise ConfigurationError(
                "accuracy_gap_max must be in [0, 1]"
            )


@dataclasses.dataclass
class ScenarioResult:
    """Measured outcome of one chaos scenario."""

    name: str
    seed: int
    total_requests: int
    answered_requests: int
    degraded_requests: int
    p99_latency_s: float
    accuracy: float
    counters: Dict[str, int]
    notes: str = ""

    @property
    def availability(self) -> float:
        if self.total_requests == 0:
            return 1.0
        return self.answered_requests / self.total_requests

    @property
    def accuracy_gap(self) -> float:
        return 1.0 - self.accuracy

    def violations(self, slo: SloSpec) -> List[str]:
        out = []
        if self.availability < slo.availability_min:
            out.append(
                f"availability {self.availability:.4f} < "
                f"{slo.availability_min:.4f}"
            )
        if self.p99_latency_s > slo.p99_latency_max_s:
            out.append(
                f"p99 latency {self.p99_latency_s:.3g}s > "
                f"{slo.p99_latency_max_s:.3g}s"
            )
        if self.accuracy_gap > slo.accuracy_gap_max:
            out.append(
                f"accuracy gap {self.accuracy_gap:.4f} > "
                f"{slo.accuracy_gap_max:.4f}"
            )
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "total_requests": self.total_requests,
            "answered_requests": self.answered_requests,
            "availability": self.availability,
            "degraded_requests": self.degraded_requests,
            "p99_latency_s": self.p99_latency_s,
            "accuracy": self.accuracy,
            "accuracy_gap": self.accuracy_gap,
            "counters": dict(self.counters),
            "notes": self.notes,
        }


@dataclasses.dataclass
class ChaosReport:
    """All scenarios plus the SLO verdict."""

    scenarios: List[ScenarioResult]
    slo: SloSpec
    seed: int

    @property
    def ok(self) -> bool:
        return all(
            not s.violations(self.slo) for s in self.scenarios
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "slo": dataclasses.asdict(self.slo),
            "ok": self.ok,
            "scenarios": [
                {
                    **s.as_dict(),
                    "violations": s.violations(self.slo),
                }
                for s in self.scenarios
            ],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def table(self) -> str:
        lines = [
            f"{'scenario':<18} {'avail':>7} {'p99(s)':>9} "
            f"{'acc':>6} {'degr':>5} {'verdict':>8}"
        ]
        for s in self.scenarios:
            verdict = "PASS" if not s.violations(self.slo) else "FAIL"
            lines.append(
                f"{s.name:<18} {s.availability:>7.4f} "
                f"{s.p99_latency_s:>9.3g} {s.accuracy:>6.2f} "
                f"{s.degraded_requests:>5d} {verdict:>8}"
            )
        lines.append(
            "-- chaos: "
            + ("all SLOs met" if self.ok else "SLO VIOLATED")
        )
        return "\n".join(lines)


# -- shared machinery --------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _Sizes:
    n_queries: int = 6
    n_candidates: int = 6
    length: int = 8


def _small_chip() -> DistanceAccelerator:
    params = dataclasses.replace(
        PAPER_PARAMS, array_rows=12, array_cols=12
    )
    return DistanceAccelerator(params=params, validate=False)


def _workload(
    rng: np.random.Generator, sizes: _Sizes
) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
    """Template bank, noisy probes, software reference table."""
    queries, candidates = retrieval_workload(
        rng, sizes.n_queries, sizes.n_candidates, sizes.length, 0.25
    )
    reference = np.array(
        [SoftwareBackend().batch(FUNCTION, q, candidates) for q in queries]
    )
    return queries, candidates, reference


class _Meter:
    """Accumulates served quality across a scenario's phases."""

    def __init__(self) -> None:
        self.total = 0
        self.answered = 0
        self.matches: List[float] = []
        self.latencies: List[float] = []

    def serve_round(
        self,
        backend: ResilientBackend,
        queries: Sequence[np.ndarray],
        candidates: Sequence[np.ndarray],
        reference: np.ndarray,
        sizes: _Sizes,
    ) -> None:
        """One pass of the 1-NN workload through the backend."""
        pool = backend.primary.pool
        for qi, query in enumerate(queries):
            self.total += len(candidates)
            served_before = len(pool.responses)
            degraded_before = backend.degraded_requests
            try:
                values = backend.batch(
                    FUNCTION, query, candidates
                )
            except Exception:  # noqa: BLE001 - chaos counts, not crashes
                continue
            self.answered += len(candidates)
            truth = int(np.argmin(reference[qi]))
            self.matches.append(
                1.0 if int(np.argmin(values)) == truth else 0.0
            )
            if backend.degraded_requests > degraded_before:
                # Fallback latency: the modelled CPU loop per query.
                self.latencies.extend(
                    [modelled_cpu_time(FUNCTION, sizes.length)]
                    * len(candidates)
                )
            else:
                new = list(pool.responses.values())[served_before:]
                self.latencies.extend(
                    r.latency_s for r in new if r.status == "ok"
                )

    def result(
        self,
        name: str,
        seed: int,
        backend: ResilientBackend,
        notes: str = "",
    ) -> ScenarioResult:
        pool = backend.primary.pool
        counters = {
            k: v
            for k, v in pool.metrics.as_dict()["counters"].items()
            if v
        }
        return ScenarioResult(
            name=name,
            seed=seed,
            total_requests=self.total,
            answered_requests=self.answered,
            degraded_requests=backend.degraded_requests,
            p99_latency_s=(
                float(np.percentile(self.latencies, 99.0))
                if self.latencies
                else 0.0
            ),
            accuracy=(
                float(np.mean(self.matches)) if self.matches else 0.0
            ),
            counters=counters,
            notes=notes,
        )


def _make_stack(
    n_shards: int,
    config: PoolConfig,
    pacing_s: float = 0.0,
    deadline_s: Optional[float] = None,
    max_retries: int = 8,
    fallback_on_deadline: bool = False,
) -> ResilientBackend:
    pool = AcceleratorPool(
        n_shards=n_shards,
        config=config,
        accelerator_factory=_small_chip,
    )
    return ResilientBackend(
        primary=PoolBackend(
            pool,
            max_retries=max_retries,
            pacing_s=pacing_s,
            deadline_s=deadline_s,
        ),
        fallback_on_deadline=fallback_on_deadline,
    )


# -- scenarios ---------------------------------------------------------------
def _scenario_shard_death(seed: int, sizes: _Sizes) -> ScenarioResult:
    """BIST condemns a shard while its batcher holds work; then the
    last shard dies too and the fallback must absorb everything."""
    rng = np.random.default_rng(seed)
    queries, candidates, reference = _workload(rng, sizes)
    backend = _make_stack(
        n_shards=2,
        config=PoolConfig(
            cache_capacity=0,
            batch_window_s=1.0e-5,
            max_batch=64,
            bist_interval_s=1.0e-6,
            auto_repair=False,
        ),
        pacing_s=2.0e-6,
    )
    pool = backend.primary.pool
    meter = _Meter()
    # Phase 1: shard 0 dies mid-batch; work re-routes to shard 1.
    pool.inject_faults(
        FaultInjector(_KILL, seed=seed + 1), indices=[0]
    )
    meter.serve_round(backend, queries, candidates, reference, sizes)
    # Phase 2: shard 1 dies as well; only the fallback remains.
    pool.inject_faults(
        FaultInjector(_KILL, seed=seed + 2), indices=[1]
    )
    meter.serve_round(backend, queries, candidates, reference, sizes)
    counters = pool.metrics.as_dict()["counters"]
    notes = (
        f"retried={counters['faults_retried']} "
        f"quarantined={counters['faults_quarantined']} "
        f"degraded={backend.degraded_requests}"
    )
    return meter.result("shard_death", seed, backend, notes)


def _scenario_drift_storm(seed: int, sizes: _Sizes) -> ScenarioResult:
    """Every shard ages at once; repair must restore accuracy."""
    rng = np.random.default_rng(seed)
    queries, candidates, reference = _workload(rng, sizes)
    backend = _make_stack(
        n_shards=2,
        config=PoolConfig(cache_capacity=0, auto_repair=True),
    )
    pool = backend.primary.pool
    meter = _Meter()
    pool.inject_faults(FaultInjector(_DRIFT, seed=seed + 1))
    pool.run_bist()
    meter.serve_round(backend, queries, candidates, reference, sizes)
    requalified = pool.metrics.counter("faults_requalified").value
    return meter.result(
        "drift_storm",
        seed,
        backend,
        notes=f"requalified={requalified}",
    )


def _scenario_queue_saturation(
    seed: int, sizes: _Sizes
) -> ScenarioResult:
    """A one-deep queue against a burst: backoff retries, then a
    hopeless deadline budget that must fail fast into the fallback."""
    rng = np.random.default_rng(seed)
    queries, candidates, reference = _workload(rng, sizes)
    saturated = PoolConfig(
        queue_depth=1,
        enable_batching=False,
        cache_capacity=0,
        retry=RetryPolicy(seed=seed),
    )
    # Phase 1: no deadline — shed requests re-arrive with backoff
    # until everything is served.
    backend = _make_stack(n_shards=1, config=saturated)
    meter = _Meter()
    meter.serve_round(backend, queries, candidates, reference, sizes)
    shed = backend.primary.pool.metrics.counter("shed").value
    # Phase 2: a deadline far below the queueing delay — requests
    # must expire fast and degrade to the digital fallback.
    deadlined = _make_stack(
        n_shards=1,
        config=saturated,
        deadline_s=1.0e-9,
        fallback_on_deadline=True,
    )
    # Re-point the meter's accounting at the second stack by serving
    # through it; degraded counts merge below.
    meter.serve_round(
        deadlined, queries, candidates, reference, sizes
    )
    expired = (
        deadlined.primary.pool.metrics.counter(
            "deadline_exceeded"
        ).value
    )
    result = meter.result(
        "queue_saturation",
        seed,
        backend,
        notes=f"shed={shed} deadline_exceeded={expired}",
    )
    result.degraded_requests += deadlined.degraded_requests
    result.counters["deadline_exceeded"] = expired
    return result


def _scenario_cache_storm(seed: int, sizes: _Sizes) -> ScenarioResult:
    """Quarantines keep flushing the result cache under a hot query
    set, ending with every shard dead and the fallback serving."""
    rng = np.random.default_rng(seed)
    queries, candidates, reference = _workload(rng, sizes)
    backend = _make_stack(
        n_shards=2,
        config=PoolConfig(cache_capacity=256, auto_repair=False),
    )
    pool = backend.primary.pool
    meter = _Meter()
    # Warm the cache with one pass, replay it hot, then kill shards
    # one by one; each quarantine drops the cache, and each replay
    # must still be correct.
    meter.serve_round(backend, queries, candidates, reference, sizes)
    meter.serve_round(backend, queries, candidates, reference, sizes)
    hits_warm = pool.metrics.counter("cache_hits").value
    for shard_index in range(2):
        pool.inject_faults(
            FaultInjector(_KILL, seed=seed + 1 + shard_index),
            indices=[shard_index],
        )
        pool.run_bist()
        meter.serve_round(
            backend, queries, candidates, reference, sizes
        )
    return meter.result(
        "cache_storm",
        seed,
        backend,
        notes=(
            f"warm_hits={hits_warm} "
            f"cache_len={len(pool.cache)} "
            f"degraded={backend.degraded_requests}"
        ),
    )


def _scenario_flapping_shard(
    seed: int, sizes: _Sizes
) -> ScenarioResult:
    """A shard that faults, repairs, and faults again: the breaker
    must trip each round and its cooldown must grow."""
    rng = np.random.default_rng(seed)
    queries, candidates, reference = _workload(rng, sizes)
    backend = _make_stack(
        n_shards=2,
        config=PoolConfig(
            cache_capacity=0,
            auto_repair=True,
            breaker=BreakerConfig(
                cooldown_s=1.0e-4,
                cooldown_multiplier=2.0,
                max_cooldown_s=1.0,
            ),
        ),
    )
    pool = backend.primary.pool
    meter = _Meter()
    flapper = pool.shards[0].breaker
    for round_index in range(3):
        pool.inject_faults(
            FaultInjector(_DRIFT, seed=seed + 1 + round_index),
            indices=[0],
        )
        pool.run_bist(now=pool.virtual_now)
        if pool.shards[0].quarantined:
            # Repair luck ran out (seed-dependent): the operator
            # swaps the chip.  The slot's breaker — and its grown
            # cooldown — survives the replacement.
            pool.replace_shard(0)
        # Back in rotation but cooling down: placement must avoid
        # shard 0 while the breaker is open, yet serving continues.
        meter.serve_round(
            backend, queries, candidates, reference, sizes
        )
        # Let the cooldown expire before the next flap.
        idle = pool.virtual_now + flapper.cooldown_s() + 1.0e-6
        pool.submit(
            FUNCTION, candidates[0], candidates[1], arrival_s=idle
        )
        pool.drain()
    return meter.result(
        "flapping_shard",
        seed,
        backend,
        notes=(
            f"trips={flapper.trips} "
            f"cooldown_s={flapper.cooldown_s():.3g}"
        ),
    )


SCENARIOS: Dict[str, Callable[[int, _Sizes], ScenarioResult]] = {
    "shard_death": _scenario_shard_death,
    "drift_storm": _scenario_drift_storm,
    "queue_saturation": _scenario_queue_saturation,
    "cache_storm": _scenario_cache_storm,
    "flapping_shard": _scenario_flapping_shard,
}


def run_chaos(
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 0,
    slo: Optional[SloSpec] = None,
    smoke: bool = False,
) -> ChaosReport:
    """Run the named scenarios (default: all five) under one seed."""
    names = (
        tuple(SCENARIOS) if scenarios is None else tuple(scenarios)
    )
    for name in names:
        if name not in SCENARIOS:
            raise ConfigurationError(
                f"unknown chaos scenario {name!r}; known: "
                + ", ".join(sorted(SCENARIOS))
            )
    sizes = (
        _Sizes(n_queries=4, n_candidates=5) if smoke else _Sizes()
    )
    slo = slo if slo is not None else SloSpec()
    results = [
        SCENARIOS[name](seed, sizes) for name in names
    ]
    return ChaosReport(scenarios=results, slo=slo, seed=seed)
