"""The benchmark's four workloads.

Every workload draws its inputs from the run's seed, builds the serving
stack in :meth:`Workload.setup`, performs one user-level operation per
:meth:`Workload.op` call and verifies the answers it collected in
:meth:`Workload.check` against the software reference distances
(:mod:`repro.distances`).  Set-up ends with one warm-up operation on
inputs of its own, so graph templates and BIST golden outputs exist
before timing starts, as they would on a server that has been up for a
while.

Requests reach the pool through its public ``submit``/``drain`` API
with virtual arrival times drawn here: each operation is a short
open-loop burst (Poisson arrivals) starting at the pool's current
virtual time, so modelled latencies include queueing but never a
backlog that grows with the number of operations a host manages to
run.  Inputs are scaled so every checked distance stays inside the
ADC's full-scale range, which keeps the analog answers within the
chip's error budget of the software reference (only the subsequence
search's far-off candidates clip, and those never win).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import distances as sw
from repro.accelerator import DistanceAccelerator
from repro.accelerator.params import PAPER_PARAMS
from repro.datasets.preprocessing import z_normalise
from repro.faults import DriftFault, FaultInjector, StuckAtFault
from repro.mining import subsequence_search
from repro.serving import AcceleratorPool, PoolBackend, PoolConfig

#: The paper's application mix: iris authentication (hamming), ECG
#: similarity (lcs), vehicle classification (dtw) plus generic traffic.
MIX = {
    "dtw": 0.30,
    "edit": 0.05,
    "hamming": 0.25,
    "hausdorff": 0.05,
    "lcs": 0.20,
    "manhattan": 0.15,
}
ROW_FUNCTIONS = ("hamming", "manhattan")
COUNTING_FUNCTIONS = ("edit", "hamming", "lcs")
THRESHOLD = 0.5

#: Analog error budget of a default chip against the software
#: reference: the Fig. 5 hybrid relative error plus three ADC codes of
#: output quantisation (one code is 0.1 distance units).  Counting
#: functions see symbol sequences (below), so no element sits near the
#: match threshold and their answers are exact up to quantisation.
RELATIVE_TOLERANCE = 0.15
QUANTISATION_SLACK = 0.3

#: Symbol alphabet of the counting functions' inputs (iris codes, SAX
#: words): integer levels, every pairwise gap a whole unit away from
#: the 0.5 threshold.
SYMBOLS = 4

WARM_SEED = 20170618


def kwargs_for(function: str) -> Dict[str, float]:
    return {"threshold": THRESHOLD} if function in COUNTING_FUNCTIONS else {}


def reference(function: str, p, q, **kwargs) -> float:
    return float(getattr(sw, function)(p, q, **kwargs_for(function), **kwargs))


def within_budget(function: str, value: Optional[float], ref: float) -> bool:
    if value is None:
        return False
    budget = RELATIVE_TOLERANCE * max(abs(ref), 1.0) + QUANTISATION_SLACK
    return abs(value - ref) <= budget


def instrument(pool: AcceleratorPool, tracer) -> None:
    """Record calls into each shard's chip as ``accelerator`` spans."""
    if not tracer.enabled:
        return
    for shard in pool.shards:
        chip = shard.accelerator
        if getattr(chip, "_perfbench_traced", False):
            continue
        for name in ("compute", "batch_pairs", "compute_many"):
            setattr(chip, name, tracer.wrap("accelerator", getattr(chip, name)))
        chip._perfbench_traced = True


class Workload:
    """Shared bookkeeping: answered queries and modelled latencies."""

    name = ""

    def __init__(self, seed: int, tracer) -> None:
        self.tracer = tracer
        self.rng = np.random.default_rng([seed, 0])
        self.data_rng = np.random.default_rng([seed, 2])
        self.pool: Optional[AcceleratorPool] = None
        self.reset()

    @staticmethod
    def warm_rng() -> np.random.Generator:
        """Warm-up inputs, identical for every seed and every set-up, so
        ``setup_s`` measures the program rather than the draw."""
        return np.random.default_rng(WARM_SEED)

    def reset(self) -> None:
        """Forget what set-up recorded; only measured operations count."""
        self.queries = 0
        self.latencies: List[float] = []
        self.waits: List[float] = []

    def record(self, responses) -> None:
        for response in responses:
            if response.status == "ok":
                self.queries += 1
                self.latencies.append(response.latency_s)
                self.waits.append(response.start_s - response.arrival_s)

    def _drain(self, pool: AcceleratorPool):
        responses = pool.drain()
        self.record(responses)
        return responses

    def new_pool(self, **kwargs) -> AcceleratorPool:
        pool = AcceleratorPool(**kwargs)
        instrument(pool, self.tracer)
        self.pool = pool
        return pool

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> None:
        raise NotImplementedError

    def check(self) -> Tuple[int, int]:
        """``(attempted, failed)`` user requests of the measured run."""
        raise NotImplementedError


class Serving(Workload):
    """Open-loop mixed stream of all six functions.

    Half the requests pair two series of a small hot bank, which every
    operation revisits, so the result cache answers them; the other half
    are fresh pairs that must settle on a shard, where row-structure
    requests coalesce in the batcher.
    """

    name = "serving"
    SHARDS = 4
    WAVE = 64
    GAP_S = 2.0e-8
    BANK = 8
    HOT_SHARE = 0.5
    ROW_LENGTH = 16
    MATRIX_LENGTH = 8
    SCALE = 0.5

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        self.functions = sorted(MIX)
        weights = np.array([MIX[f] for f in self.functions])
        self.probabilities = weights / weights.sum()
        self.banks = {
            f: self._draw(self.data_rng, f, (self.BANK, self._length(f)))
            for f in self.functions
        }

    def _length(self, function: str) -> int:
        return self.ROW_LENGTH if function in ROW_FUNCTIONS else self.MATRIX_LENGTH

    def _draw(self, rng: np.random.Generator, function: str, shape) -> np.ndarray:
        if function in COUNTING_FUNCTIONS:
            return rng.integers(0, SYMBOLS, size=shape).astype(np.float64)
        return self.SCALE * rng.normal(size=shape)

    def setup(self) -> None:
        self.new_pool(n_shards=self.SHARDS)
        self._wave(self.warm_rng())

    def op(self) -> None:
        self._wave(self.rng)

    def _wave(self, rng: np.random.Generator) -> None:
        pool = self.pool
        picks = rng.choice(len(self.functions), size=self.WAVE, p=self.probabilities)
        hot = rng.random(self.WAVE) < self.HOT_SHARE
        arrivals = pool.virtual_now + np.cumsum(
            rng.exponential(self.GAP_S, size=self.WAVE)
        )
        requests = []
        for k in range(self.WAVE):
            function = self.functions[picks[k]]
            if hot[k]:
                i, j = rng.integers(0, self.BANK, size=2)
                p, q = self.banks[function][i], self.banks[function][j]
                key = (function, int(i), int(j))
            else:
                p, q = self._draw(rng, function, (2, self._length(function)))
                key = None
            requests.append((function, p, q, key))
        with self.tracer.span("pool"):
            for (function, p, q, _), arrival in zip(requests, arrivals):
                pool.submit(
                    function, p, q, arrival_s=float(arrival), **kwargs_for(function)
                )
            responses = self._drain(pool)
        for request, response in zip(requests, responses):
            value = response.value if response.status == "ok" else None
            self.answers.append((request, value))

    def reset(self) -> None:
        super().reset()
        self.answers = []

    def check(self) -> Tuple[int, int]:
        refs: Dict[Tuple[str, int, int], float] = {}
        failed = 0
        for (function, p, q, key), value in self.answers:
            if key is None:
                ref = reference(function, p, q)
            else:
                if key not in refs:
                    refs[key] = reference(function, p, q)
                ref = refs[key]
            if not within_budget(function, value, ref):
                failed += 1
        return len(self.answers), failed


class Knn(Workload):
    """1-NN DTW classification against a labelled training set.

    Users arrive as a Poisson process; each classification fans out one
    DTW request per training series.  Every query is new, so the result
    cache never hits and matrix settles dominate.
    """

    name = "knn"
    SHARDS = 4
    CLASSES = 5
    PER_CLASS = 6
    LENGTH = 16
    USERS = 2
    GAP_S = 3.0e-7
    SCALE = 0.5

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        t = np.linspace(0.0, 1.0, self.LENGTH)
        self.prototypes = []
        for _ in range(self.CLASSES):
            curve = np.zeros(self.LENGTH)
            for k in range(1, 5):
                curve += self.data_rng.normal(0.0, 1.0 / k) * np.sin(
                    2.0 * np.pi * k * t + self.data_rng.uniform(0.0, 2.0 * np.pi)
                )
            self.prototypes.append(curve)
        self.train = [
            self._instance(self.data_rng, label)
            for label in range(self.CLASSES)
            for _ in range(self.PER_CLASS)
        ]

    def _instance(self, rng: np.random.Generator, label: int) -> np.ndarray:
        curve = self.prototypes[label] * rng.uniform(0.8, 1.2)
        curve = curve + rng.normal(0.0, 0.3, self.LENGTH)
        return self.SCALE * z_normalise(curve)

    def setup(self) -> None:
        self.new_pool(n_shards=self.SHARDS)
        self._wave(self.warm_rng())

    def op(self) -> None:
        self._wave(self.rng)

    def _wave(self, rng: np.random.Generator) -> None:
        pool = self.pool
        arrivals = pool.virtual_now + np.cumsum(
            rng.exponential(self.GAP_S, size=self.USERS)
        )
        queries = [
            self._instance(rng, int(rng.integers(self.CLASSES)))
            for _ in range(self.USERS)
        ]
        with self.tracer.span("pool"):
            for query, arrival in zip(queries, arrivals):
                for series in self.train:
                    pool.submit("dtw", query, series, arrival_s=float(arrival))
            responses = self._drain(pool)
        n = len(self.train)
        with self.tracer.span("mining"):
            for u, query in enumerate(queries):
                values = np.array(
                    [
                        r.value if r.status == "ok" else np.nan
                        for r in responses[u * n : (u + 1) * n]
                    ]
                )
                nearest = int(np.argmin(np.where(np.isnan(values), np.inf, values)))
                self.answers.append((query, values, nearest))

    def reset(self) -> None:
        super().reset()
        self.answers = []

    def check(self) -> Tuple[int, int]:
        failed = 0
        for query, values, nearest in self.answers:
            refs = np.array([reference("dtw", query, s) for s in self.train])
            ok = all(
                within_budget("dtw", None if np.isnan(v) else float(v), r)
                for v, r in zip(values, refs)
            )
            # The chosen neighbour must be as near as the true one, up
            # to the analog error budget.
            best = float(refs.min())
            budget = RELATIVE_TOLERANCE * max(best, 1.0) + QUANTISATION_SLACK
            if not ok or refs[nearest] > best + budget:
                failed += 1
        return len(self.answers), failed


class Subsequence(Workload):
    """UCR-style best-match DTW search over a long series.

    :func:`repro.mining.subsequence_search` runs its software lower-bound
    cascade and sends each surviving candidate to the pool, one request
    at a time, through :class:`repro.serving.PoolBackend`.  Query
    lengths vary per search, as users' patterns do; an operation is a
    few searches, which evens out how much each one prunes.
    """

    name = "subsequence"
    SEARCHES = 3
    SHARDS = 4
    SERIES_LENGTH = 128
    QUERY_LENGTHS = (12, 20)
    BAND = 0.1
    NOISE = 0.1

    def setup(self) -> None:
        pool = self.new_pool(n_shards=self.SHARDS)
        self.backend = PoolBackend(pool)
        if self.tracer.enabled:
            self.backend.compute = self.tracer.wrap("pool", self.backend.compute)
        self._search(self.warm_rng())

    def op(self) -> None:
        for _ in range(self.SEARCHES):
            self._search(self.rng)

    def _search(self, rng: np.random.Generator) -> None:
        series = np.cumsum(rng.normal(size=self.SERIES_LENGTH))
        length = int(rng.integers(self.QUERY_LENGTHS[0], self.QUERY_LENGTHS[1] + 1))
        offset = int(rng.integers(0, self.SERIES_LENGTH - length + 1))
        query = z_normalise(series[offset : offset + length]) + rng.normal(
            0.0, self.NOISE, length
        )
        pool = self.pool
        before = len(pool.responses)
        with self.tracer.span("mining"):
            result = subsequence_search(
                series, query, band=self.BAND, backend=self.backend
            )
        self.record(list(pool.responses.values())[before:])
        self.answers.append((series, query, result))

    def reset(self) -> None:
        super().reset()
        self.answers = []

    def check(self) -> Tuple[int, int]:
        failed = 0
        for series, query, result in self.answers:
            truth = subsequence_search(series, query, band=self.BAND)
            window = series[result.best_index : result.best_index + query.shape[0]]
            served = reference(
                "dtw", z_normalise(window), z_normalise(query), band=self.BAND
            )
            budget = (
                RELATIVE_TOLERANCE * max(truth.best_distance, 1.0)
                + QUANTISATION_SLACK
            )
            if (
                served > truth.best_distance + budget
                or not within_budget("dtw", result.best_distance, served)
            ):
                failed += 1
        return len(self.answers), failed


class FaultChurn(Workload):
    """Inject, serve, self-test, repair and serve again, every cycle.

    Each cycle stamps a fresh stuck-at plus ageing-drift fault map onto
    the next shard, serves a 1-NN retrieval wave (answers from the sick
    chip are served unscored: silent degradation is the point), runs the
    pool's BIST (detect, quarantine, recalibrate, requalify; a chip
    that fails requalification is replaced) and serves a second wave,
    which must be correct.  Small 12x12 chips, as in the repository's
    fault campaign, so the probe set covers every PE site.
    """

    name = "fault_churn"
    SHARDS = 2
    ARRAY = 12
    FUNCTIONS = ("dtw", "manhattan")
    CANDIDATES = 6
    QUERIES = 3
    LENGTH = 8
    GAP_S = 2.0e-8
    SCALE = 0.5
    SCENARIO = (
        StuckAtFault(rate=0.05),
        DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003),
    )

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        self.params = dataclasses.replace(
            PAPER_PARAMS, array_rows=self.ARRAY, array_cols=self.ARRAY
        )
        self.bank = self.SCALE * self.data_rng.normal(
            size=(self.CANDIDATES, self.LENGTH)
        )
        self.cycles = 0

    def _chip(self) -> DistanceAccelerator:
        return DistanceAccelerator(params=self.params, validate=False)

    def setup(self) -> None:
        self.new_pool(
            n_shards=self.SHARDS,
            config=PoolConfig(cache_capacity=0),
            accelerator_factory=self._chip,
        )
        self.cycles = 0
        self._cycle(self.warm_rng())

    def op(self) -> None:
        self._cycle(self.rng)

    def _cycle(self, rng: np.random.Generator) -> None:
        pool = self.pool
        target = self.cycles % self.SHARDS
        self.cycles += 1
        with self.tracer.span("faults"):
            pool.inject_faults(
                FaultInjector(self.SCENARIO, seed=int(rng.integers(2**31))),
                indices=[target],
            )
        self._wave(rng, scored=False)
        detected = pool.metrics.counter("faults_bist_detections").value
        with self.tracer.span("bist"):
            pool.run_bist(now=pool.virtual_now)
            for shard in pool.shards:
                if shard.quarantined:
                    pool.replace_shard(shard.index)
            instrument(pool, self.tracer)
        self.detections.append(
            pool.metrics.counter("faults_bist_detections").value > detected
        )
        self._wave(rng, scored=True)

    def _wave(self, rng: np.random.Generator, scored: bool) -> None:
        pool = self.pool
        n = len(self.FUNCTIONS) * self.QUERIES * self.CANDIDATES
        arrivals = pool.virtual_now + np.cumsum(rng.exponential(self.GAP_S, size=n))
        queries = [
            self.bank[int(rng.integers(self.CANDIDATES))]
            + rng.normal(0.0, 0.25 * self.SCALE, self.LENGTH)
            for _ in range(self.QUERIES)
        ]
        keys = []
        with self.tracer.span("pool"):
            for function in self.FUNCTIONS:
                for query in queries:
                    for c in range(self.CANDIDATES):
                        pool.submit(
                            function,
                            query,
                            self.bank[c],
                            arrival_s=float(arrivals[len(keys)]),
                        )
                        keys.append((function, query, c))
            responses = self._drain(pool)
        for (function, query, c), response in zip(keys, responses):
            value = response.value if response.status == "ok" else None
            self.answers.append((scored, function, query, c, value))

    def reset(self) -> None:
        super().reset()
        self.answers = []
        self.detections: List[bool] = []

    def check(self) -> Tuple[int, int]:
        failed = sum(1 for detected in self.detections if not detected)
        for scored, function, query, c, value in self.answers:
            if value is None:
                failed += 1
            elif scored and not within_budget(
                function, value, reference(function, query, self.bank[c])
            ):
                failed += 1
        return len(self.answers) + len(self.detections), failed


WORKLOADS = {
    cls.name: cls for cls in (Serving, Knn, Subsequence, FaultChurn)
}
