"""Engine benchmark: the BENCH trajectory's first artefact.

Times the vectorized execution engine (levelized settles + graph
template cache + batched solves) against the seed engine's behaviour
(Jacobi sweeps, graph rebuilt per settle) on three representative
workloads and two cold-template cases, plus one batched-versus-sequential
case:

* ``single_dtw`` — repeated DTW n=40 ``compute`` on the paper's
  128x128 array (single tile; the template cache is warm after the
  first query, which is the serving steady state);
* ``tiled_dtw`` — DTW n=40 on a 16x16 array (nine DP tiles per query;
  exercises the boundary-rebinding path);
* ``batch_manhattan`` — one 128-wide ``batch_pairs`` settle of n=16
  Manhattan comparisons (the dynamic batcher's primitive);
* ``batch_dtw`` — 32 DTW n=16 pairs through one ``compute_many``
  against 32 sequential ``compute`` calls on the same warm chip (the
  pool's coalesced-settle primitive; here the baseline is the default
  engine one query at a time, not the seed engine);
* ``cold_dtw`` — the first DTW n=40 ``compute`` on a fresh chip
  with an emptied structure store: graph build, freeze, level-program
  compile and solve, the cost the first chip of a design pays once per
  template (later chips of that design, such as a replaced shard,
  share the structure);
* ``refault_dtw`` — the first DTW n=40 ``compute`` on a faulted chip
  after ``invalidate_templates()``: the fault-epoch bump every inject
  and recalibration causes, which re-derives the template's values on
  the kept graph structure, against the seed engine on a chip with the
  same fault map (stage-by-stage faulted rebuild + Jacobi sweeps);
* ``pool_fanout`` — a 1-NN DTW fan-out (2 users x 30 series, n=16)
  submitted pair by pair to a 4-shard pool with the result cache off
  and drained, against one bare ``compute_many`` of the same 60 pairs
  on one chip.  The drain settles them in that same one solve, so the
  ratio (below 1) is the share of a drain's host time the chip gets:
  what the pool's per-request bookkeeping costs on top.

Every case checks bit-identical values between the two engines before
timing — a benchmark of a wrong answer is worse than no benchmark.
Results land in ``BENCH_engine.json`` via ``repro bench``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from ..accelerator import DistanceAccelerator
from ..accelerator.array import clear_structure_store
from ..accelerator.params import PAPER_PARAMS
from ..faults import DriftFault, FaultInjector, LostPairFault
from ..serving import AcceleratorPool, PoolConfig

#: Acceptance floors: warm-cache single compute and the batched settle
#: must beat the seed engine by at least this much, and a coalesced
#: ``compute_many`` must beat the same chip's sequential loop.  A cold
#: compute spends most of its time building the graph, which both
#: engines do, so its floor only bounds how far it may fall behind.
#: A fault-epoch bump skips that build and only re-derives values, so
#: ``refault_dtw`` must stay far ahead of a faulted rebuild (its floor
#: is under a third of the 35-40x a 2-vCPU host measures).  A pool
#: drain of a fan-out must keep its bookkeeping under two thirds of the
#: chip's own time for the same pairs (``pool_fanout`` >= 0.6).
SPEEDUP_FLOOR = {
    "single_dtw": 5.0,
    "batch_manhattan": 3.0,
    "batch_dtw": 3.0,
    "cold_dtw": 0.6,
    "refault_dtw": 10.0,
    "pool_fanout": 0.6,
}

#: Timing repeats the ``pool_fanout`` case takes at least: one drain is
#: a few milliseconds, and its floor gates CI, so best-of-one is too
#: noisy even under ``--smoke``.
POOL_FANOUT_MIN_REPEATS = 5

#: Fault map of the ``refault_dtw`` chips: ageing drift on every site
#: plus a few lost pairs — damage that moves every stage weight but
#: keeps the distance inside the ADC range, so the equivalence check
#: compares real values rather than two saturated readings.
REFAULT_SCENARIO = (
    DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003),
    LostPairFault(rate=0.02),
)


@dataclasses.dataclass(frozen=True)
class BenchCase:
    """One workload's timing comparison."""

    name: str
    fast_s: float
    baseline_s: float
    queries_per_s: float
    baseline_queries_per_s: float
    speedup: float
    equivalent: bool
    repeats: int

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class BenchReport:
    """The full engine benchmark, ready for ``BENCH_engine.json``."""

    cases: List[BenchCase]
    template_cache_default: bool
    levelized_default: bool
    smoke: bool
    seed: int

    @property
    def equivalent(self) -> bool:
        return all(c.equivalent for c in self.cases)

    @property
    def below_floor(self) -> List[str]:
        """Cases whose speedup fell under their :data:`SPEEDUP_FLOOR`."""
        return [
            c.name
            for c in self.cases
            if c.speedup < SPEEDUP_FLOOR.get(c.name, 0.0)
        ]

    @property
    def ok(self) -> bool:
        """True when the run is meaningful and fast enough: the fast
        path is what a plain ``DistanceAccelerator()`` serves, both
        engines agree bit-for-bit on every case, and every case meets
        its speedup floor."""
        return (
            self.template_cache_default
            and self.levelized_default
            and self.equivalent
            and not self.below_floor
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "template_cache_default": self.template_cache_default,
            "levelized_default": self.levelized_default,
            "equivalent": self.equivalent,
            "ok": self.ok,
            "smoke": self.smoke,
            "seed": self.seed,
            "speedup_floors": dict(SPEEDUP_FLOOR),
            "below_floor": self.below_floor,
            "cases": [c.as_dict() for c in self.cases],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def table(self) -> str:
        lines = [
            f"{'case':<16} {'fast q/s':>10} {'seed q/s':>10} "
            f"{'speedup':>8} {'equal':>6}"
        ]
        for c in self.cases:
            lines.append(
                f"{c.name:<16} {c.queries_per_s:>10.2f} "
                f"{c.baseline_queries_per_s:>10.2f} "
                f"{c.speedup:>7.1f}x "
                f"{'yes' if c.equivalent else 'NO':>6}"
            )
        if self.below_floor:
            lines.append(
                "-- below speedup floor: " + ", ".join(self.below_floor)
            )
        lines.append(
            "-- template cache default: "
            f"{'yes' if self.template_cache_default else 'NO'}, "
            f"levelized default: "
            f"{'yes' if self.levelized_default else 'NO'}"
        )
        return "\n".join(lines)


def _time_case(
    name: str,
    fast: Callable[[], np.ndarray],
    baseline: Callable[[], np.ndarray],
    repeats: int,
) -> BenchCase:
    """Warm both engines (checking equivalence), then time best-of-N.

    The warm-up call is deliberate, not a flaw: it programs the fast
    engine's template so the timed loop measures the serving steady
    state, which is what the cache exists for.
    """
    fast_values = fast()
    baseline_values = baseline()
    equivalent = bool(
        np.array_equal(
            np.asarray(fast_values), np.asarray(baseline_values)
        )
    )
    fast_s = min(
        _timed(fast) for _ in range(repeats)
    )
    baseline_s = min(
        _timed(baseline) for _ in range(repeats)
    )
    return BenchCase(
        name=name,
        fast_s=fast_s,
        baseline_s=baseline_s,
        queries_per_s=1.0 / fast_s if fast_s > 0 else float("inf"),
        baseline_queries_per_s=(
            1.0 / baseline_s if baseline_s > 0 else float("inf")
        ),
        speedup=baseline_s / fast_s if fast_s > 0 else float("inf"),
        equivalent=equivalent,
        repeats=repeats,
    )


def _timed(fn: Callable[[], np.ndarray]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_engine_bench(
    smoke: bool = False,
    repeats: Optional[int] = None,
    seed: int = 0,
) -> BenchReport:
    """Run the seven-case engine benchmark.

    ``smoke`` keeps the repeat count minimal for CI; ``repeats``
    overrides it.  The baseline accelerators disable the template
    cache and solve with Jacobi sweeps — the seed engine's execution
    strategy on today's graph code, which is the honest lower bound
    available without checking out the old tree.
    """
    if repeats is None:
        repeats = 1 if smoke else 3
    rng = np.random.default_rng(seed)
    fast_chip = DistanceAccelerator()
    seed_chip = DistanceAccelerator(
        use_template_cache=False, solver="jacobi"
    )
    probe = DistanceAccelerator()
    info = probe.template_cache_info()
    template_cache_default = bool(info["enabled"])
    levelized_default = info["solver"] == "levelized"

    cases: List[BenchCase] = []

    # 1. Repeated single-query DTW n=40 (paper's Fig. 6 length).
    p40 = rng.normal(size=40)
    q40 = rng.normal(size=40)
    cases.append(
        _time_case(
            "single_dtw",
            lambda: fast_chip.compute("dtw", p40, q40).value,
            lambda: seed_chip.compute("dtw", p40, q40).value,
            repeats,
        )
    )

    # 2. Tiled DTW n=40 on a 16x16 array: nine tiles, boundary
    #    conditions rebound per tile.
    small = dataclasses.replace(
        PAPER_PARAMS, array_rows=16, array_cols=16
    )
    fast_small = DistanceAccelerator(params=small, validate=False)
    seed_small = DistanceAccelerator(
        params=small,
        validate=False,
        use_template_cache=False,
        solver="jacobi",
    )
    cases.append(
        _time_case(
            "tiled_dtw",
            lambda: fast_small.compute("dtw", p40, q40).value,
            lambda: seed_small.compute("dtw", p40, q40).value,
            repeats,
        )
    )

    # 3. One 128-wide manhattan batch_pairs settle (n=16 per pair).
    batch_pairs = [
        (rng.normal(size=16), rng.normal(size=16)) for _ in range(128)
    ]
    cases.append(
        _time_case(
            "batch_manhattan",
            lambda: fast_chip.batch_pairs(
                "manhattan", batch_pairs
            ).values,
            lambda: seed_chip.batch_pairs(
                "manhattan", batch_pairs
            ).values,
            repeats,
        )
    )

    # 4. 32 DTW n=16 pairs: one coalesced compute_many against the
    #    same warm chip's sequential compute loop.
    dtw_pairs = [
        (rng.normal(size=16), rng.normal(size=16)) for _ in range(32)
    ]
    cases.append(
        _time_case(
            "batch_dtw",
            lambda: np.array(
                [r.value for r in fast_chip.compute_many("dtw", dtw_pairs)]
            ),
            lambda: np.array(
                [fast_chip.compute("dtw", p, q).value for p, q in dtw_pairs]
            ),
            repeats,
        )
    )

    # 5. Cold DTW n=40: every timed call empties the process-wide
    #    structure store, then builds, freezes, compiles and solves
    #    the template on a fresh chip, against the seed engine's
    #    rebuild + Jacobi sweeps.
    def cold_dtw() -> float:
        clear_structure_store()
        return DistanceAccelerator(validate=False).compute(
            "dtw", p40, q40
        ).value

    cases.append(
        _time_case(
            "cold_dtw",
            cold_dtw,
            lambda: seed_chip.compute("dtw", p40, q40).value,
            repeats,
        )
    )

    # 6. Refault DTW n=40: every timed call bumps a faulted chip's
    #    fault epoch and re-derives the template's values, against
    #    the seed engine's faulted rebuild + Jacobi sweeps.
    injector = FaultInjector(REFAULT_SCENARIO, seed=seed)
    faulted_chip = DistanceAccelerator()
    faulted_seed = DistanceAccelerator(
        use_template_cache=False, solver="jacobi"
    )
    for chip in (faulted_chip, faulted_seed):
        injector.inject(chip)

    def refault_compute() -> float:
        faulted_chip.invalidate_templates()
        return faulted_chip.compute("dtw", p40, q40).value

    cases.append(
        _time_case(
            "refault_dtw",
            refault_compute,
            lambda: faulted_seed.compute("dtw", p40, q40).value,
            repeats,
        )
    )

    # 7. A knn-shaped fan-out through the pool against a bare
    #    compute_many of the same pairs on one chip.
    pool = AcceleratorPool(
        n_shards=4, config=PoolConfig(cache_capacity=0)
    )
    train = [rng.normal(size=16) for _ in range(30)]
    users = [rng.normal(size=16) for _ in range(2)]
    fanout = [(query, series) for query in users for series in train]

    def pool_fanout() -> np.ndarray:
        start = pool.virtual_now
        for k, (query, series) in enumerate(fanout):
            arrival = start + (k // len(train)) * 3.0e-7
            pool.submit("dtw", query, series, arrival_s=arrival)
        return np.array([r.value for r in pool.drain()])

    cases.append(
        _time_case(
            "pool_fanout",
            pool_fanout,
            lambda: np.array(
                [r.value for r in fast_chip.compute_many("dtw", fanout)]
            ),
            max(repeats, POOL_FANOUT_MIN_REPEATS),
        )
    )

    return BenchReport(
        cases=cases,
        template_cache_default=template_cache_default,
        levelized_default=levelized_default,
        smoke=smoke,
        seed=seed,
    )
