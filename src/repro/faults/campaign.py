"""Fault-injection campaigns: close the loop and measure it.

A campaign answers the deployment question the paper's data-center
pitch raises but never tests: *when chips degrade in the rack, does
the reliability machinery actually keep the answers right?*  Per
fault rate it drives one :class:`~repro.serving.AcceleratorPool`
through four phases:

1. **baseline** — serve a 1-NN retrieval workload on healthy shards
   and score it against the software reference distances;
2. **inject** — stamp a seeded stuck-at + ageing scenario onto every
   shard (:class:`~repro.faults.inject.FaultInjector`) and serve the
   same workload again (this is what silent degradation costs);
3. **detect & repair** — run the pool's golden-vector BIST; flagged
   shards are quarantined, recalibrated and requalified;
4. **recovered** — serve the workload a third time and compare to the
   baseline.

The headline numbers: *detection rate* (faulted shards flagged /
faulted shards), *repair rate* (faulty sites re-tuned / faulty
sites), and the *served-accuracy curve* baseline → faulted →
recovered.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..accelerator import DistanceAccelerator
from ..accelerator.configurations import get_config
from ..accelerator.params import PAPER_PARAMS
from ..backends import SoftwareBackend
from ..datasets import retrieval_workload
from ..errors import ConfigurationError, ShardUnhealthyError
from ..serving import AcceleratorPool, PoolConfig
from .inject import FaultInjector
from .models import DriftFault, FaultModel, StuckAtFault

#: Stuck-at probabilities swept by default (the paper-scale question
#: is "up to 2 % hard faults per shard").
DEFAULT_RATES = (0.005, 0.01, 0.02)


@dataclasses.dataclass(frozen=True)
class PhaseScore:
    """Served quality of one campaign phase (aggregated and per
    function)."""

    phase: str
    accuracy: float
    mean_error: float
    shed: int
    per_function: Dict[str, float]

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class RatePoint:
    """Everything measured at one fault rate."""

    rate: float
    n_faulty_shards: int
    n_detected_shards: int
    n_faulty_sites: int
    n_retuned_sites: int
    n_dead_sites: int
    baseline: PhaseScore
    faulted: PhaseScore
    recovered: PhaseScore
    shard_health: Dict[int, str]

    @property
    def detection_rate(self) -> float:
        """Faulted shards flagged by BIST (1.0 when none faulted)."""
        if self.n_faulty_shards == 0:
            return 1.0
        return self.n_detected_shards / self.n_faulty_shards

    @property
    def repair_rate(self) -> float:
        """Faulty sites restored by re-tuning (1.0 when none)."""
        if self.n_faulty_sites == 0:
            return 1.0
        return self.n_retuned_sites / self.n_faulty_sites

    @property
    def accuracy_gap(self) -> float:
        """Baseline minus recovered served accuracy (the acceptance
        number: <= 0.01 closes the loop)."""
        return self.baseline.accuracy - self.recovered.accuracy

    def as_dict(self) -> Dict[str, object]:
        return {
            "rate": self.rate,
            "n_faulty_shards": self.n_faulty_shards,
            "n_detected_shards": self.n_detected_shards,
            "detection_rate": self.detection_rate,
            "n_faulty_sites": self.n_faulty_sites,
            "n_retuned_sites": self.n_retuned_sites,
            "n_dead_sites": self.n_dead_sites,
            "repair_rate": self.repair_rate,
            "accuracy_gap": self.accuracy_gap,
            "baseline": self.baseline.as_dict(),
            "faulted": self.faulted.as_dict(),
            "recovered": self.recovered.as_dict(),
            "shard_health": {
                str(k): v for k, v in self.shard_health.items()
            },
        }


@dataclasses.dataclass
class CampaignResult:
    """A full rate sweep plus the sweep-wide aggregates."""

    points: List[RatePoint]
    functions: Tuple[str, ...]
    n_shards: int
    seed: int

    @property
    def detection_rate(self) -> float:
        """Pooled over the sweep: flagged / actually-faulted shards."""
        faulty = sum(p.n_faulty_shards for p in self.points)
        if faulty == 0:
            return 1.0
        detected = sum(p.n_detected_shards for p in self.points)
        return detected / faulty

    @property
    def repair_rate(self) -> float:
        faulty = sum(p.n_faulty_sites for p in self.points)
        if faulty == 0:
            return 1.0
        return sum(p.n_retuned_sites for p in self.points) / faulty

    @property
    def worst_accuracy_gap(self) -> float:
        if not self.points:
            return 0.0
        return max(p.accuracy_gap for p in self.points)

    def as_dict(self) -> Dict[str, object]:
        return {
            "functions": list(self.functions),
            "n_shards": self.n_shards,
            "seed": self.seed,
            "detection_rate": self.detection_rate,
            "repair_rate": self.repair_rate,
            "worst_accuracy_gap": self.worst_accuracy_gap,
            "points": [p.as_dict() for p in self.points],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def table(self) -> str:
        lines = [
            f"{'rate':>6} {'detect':>7} {'repair':>7} {'dead':>5} "
            f"{'base':>6} {'faulted':>8} {'recov':>6} {'gap':>7}"
        ]
        for p in self.points:
            lines.append(
                f"{p.rate:>6.3f} {p.detection_rate:>7.2f} "
                f"{p.repair_rate:>7.2f} {p.n_dead_sites:>5d} "
                f"{p.baseline.accuracy:>6.2f} "
                f"{p.faulted.accuracy:>8.2f} "
                f"{p.recovered.accuracy:>6.2f} "
                f"{p.accuracy_gap:>7.3f}"
            )
        lines.append(
            f"-- sweep: detection {self.detection_rate:.2f}, repair "
            f"{self.repair_rate:.2f}, worst accuracy gap "
            f"{self.worst_accuracy_gap:.3f}"
        )
        return "\n".join(lines)


def _reference_tables(
    functions: Sequence[str],
    queries: Sequence[np.ndarray],
    candidates: Sequence[np.ndarray],
    threshold: float,
) -> Dict[str, np.ndarray]:
    """Software-reference distance matrix per function."""
    tables = {}
    for function in functions:
        kwargs = (
            {"threshold": threshold}
            if get_config(function).uses_threshold
            else {}
        )
        tables[function] = np.array(
            [
                SoftwareBackend().batch(function, query, candidates, **kwargs)
                for query in queries
            ]
        )
    return tables


def _serve_phase(
    phase: str,
    pool: AcceleratorPool,
    functions: Sequence[str],
    queries: Sequence[np.ndarray],
    candidates: Sequence[np.ndarray],
    references: Dict[str, np.ndarray],
    threshold: float,
) -> PhaseScore:
    """Serve the whole workload through the pool and score it.

    Accuracy is 1-NN retrieval agreement with the software reference;
    error is the Fig. 5 hybrid relative scale, averaged over every
    served distance.  Shed requests score as misses.
    """
    matches: List[float] = []
    errors: List[float] = []
    per_function: Dict[str, float] = {}
    shed = 0
    for function in functions:
        kwargs = (
            {"threshold": threshold}
            if get_config(function).uses_threshold
            else {}
        )
        ids = []
        try:
            for query in queries:
                ids.append(
                    [
                        pool.submit(function, query, cand, **kwargs)
                        for cand in candidates
                    ]
                )
            responses = {
                r.request_id: r for r in pool.drain()
            }
        except ShardUnhealthyError:
            # Nothing healthy left: the whole function scores zero.
            per_function[function] = 0.0
            matches.extend([0.0] * len(queries))
            shed += len(queries) * len(candidates)
            continue
        fn_matches = []
        for qi, row_ids in enumerate(ids):
            served = np.full(len(candidates), np.inf)
            for ci, rid in enumerate(row_ids):
                response = responses[rid]
                if response.status != "ok":
                    shed += 1
                    continue
                served[ci] = response.value
                reference = references[function][qi, ci]
                errors.append(
                    abs(served[ci] - reference)
                    / max(abs(reference), 1.0)
                )
            truth = int(np.argmin(references[function][qi]))
            fn_matches.append(
                1.0 if int(np.argmin(served)) == truth else 0.0
            )
        per_function[function] = float(np.mean(fn_matches))
        matches.extend(fn_matches)
    return PhaseScore(
        phase=phase,
        accuracy=float(np.mean(matches)) if matches else 0.0,
        mean_error=float(np.mean(errors)) if errors else 0.0,
        shed=shed,
        per_function=per_function,
    )


def default_scenario(rate: float) -> Tuple[FaultModel, ...]:
    """Hard faults at ``rate`` on top of uniform retention drift.

    The drift magnitude (~2 % sigma after a year of retention loss)
    sits above the BIST degraded threshold, so every aged shard is
    detectable — and re-tunable, since a drifted device still
    responds to programming pulses.
    """
    return (
        StuckAtFault(rate=rate),
        DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003),
    )


def run_campaign(
    rates: Sequence[float] = DEFAULT_RATES,
    functions: Sequence[str] = ("manhattan", "dtw"),
    n_shards: int = 3,
    n_queries: int = 8,
    n_candidates: int = 8,
    length: int = 8,
    array_rows: int = 12,
    array_cols: int = 12,
    query_noise: float = 0.25,
    threshold: float = 0.5,
    seed: int = 7,
    models: Optional[Sequence[FaultModel]] = None,
    auto_repair: bool = True,
    bist_vectors: int = 1,
    bist_length: int = 8,
) -> CampaignResult:
    """Sweep fault rates through the full inject→detect→repair loop.

    ``models`` overrides the per-rate :func:`default_scenario` with a
    fixed scenario (the ``rates`` then only vary the injection seed).
    Campaign chips use a small PE array so the BIST probe set covers
    every physical site.
    """
    if len(rates) == 0:
        raise ConfigurationError("need at least one fault rate")
    functions = tuple(get_config(f).name for f in functions)
    rng = np.random.default_rng(seed)
    queries, candidates = retrieval_workload(
        rng, n_queries, n_candidates, length, query_noise
    )
    references = _reference_tables(
        functions, queries, candidates, threshold
    )
    params = dataclasses.replace(
        PAPER_PARAMS, array_rows=array_rows, array_cols=array_cols
    )
    pool_config = PoolConfig(
        cache_capacity=0,  # caching would mask served-accuracy shifts
        bist_vectors=bist_vectors,
        bist_length=bist_length,
        auto_repair=auto_repair,
    )

    points: List[RatePoint] = []
    for k, rate in enumerate(rates):
        pool = AcceleratorPool(
            n_shards=n_shards,
            config=pool_config,
            accelerator_factory=lambda: DistanceAccelerator(
                params=params, validate=False
            ),
        )
        baseline = _serve_phase(
            "baseline", pool, functions, queries, candidates,
            references, threshold,
        )
        scenario = (
            tuple(models) if models is not None
            else default_scenario(rate)
        )
        injector = FaultInjector(scenario, seed=seed + 1000 * k)
        states = pool.inject_faults(injector)
        faulty = {
            index
            for index, state in states.items()
            if state.has_faults
        }
        faulted = _serve_phase(
            "faulted", pool, functions, queries, candidates,
            references, threshold,
        )
        reports = pool.run_bist()
        detected = {
            index
            for index, report in reports.items()
            if not report.is_healthy
        }
        repairs = list(pool.last_repairs.values())
        recovered = _serve_phase(
            "recovered", pool, functions, queries, candidates,
            references, threshold,
        )
        points.append(
            RatePoint(
                rate=float(rate),
                n_faulty_shards=len(faulty),
                n_detected_shards=len(detected & faulty),
                n_faulty_sites=sum(r.n_faulty for r in repairs),
                n_retuned_sites=sum(r.n_retuned for r in repairs),
                n_dead_sites=sum(r.n_dead for r in repairs),
                baseline=baseline,
                faulted=faulted,
                recovered=recovered,
                shard_health={
                    shard.index: shard.health
                    for shard in pool.shards
                },
            )
        )
    return CampaignResult(
        points=points,
        functions=functions,
        n_shards=n_shards,
        seed=seed,
    )


def smoke_campaign(seed: int = 7) -> CampaignResult:
    """The CI preset: one rate (2 % stuck-at), one serving function,
    two shards — small enough for a test job, complete enough to
    exercise every stage of the loop."""
    return run_campaign(
        rates=(0.02,),
        functions=("manhattan",),
        n_shards=2,
        n_queries=5,
        n_candidates=6,
        length=8,
        array_rows=12,
        array_cols=12,
        seed=seed,
    )
