"""Characterization test: fan-out drains through the pool, pinned to a fixture.

Four seeded scenarios shaped like the repository benchmark's traffic
drive ``AcceleratorPool.submit``/``drain`` one pair per request:

* ``knn`` — 1-NN DTW waves, 2 users x 30 training series (n=16) on 4
  default shards, so every drain is one coalesced settle group;
* ``serving`` — mixed six-function waves, half from a hot bank (result
  cache hits), row-structure requests coalescing in the batcher;
* ``backend`` — ``PoolBackend.batch`` row fan-outs whose candidates all
  share one query object (one DAC row drives every comparison of the
  batch), a list-valued query (no sharing) and a ``pairwise`` matrix;
* ``fault_churn`` — inject, serve, BIST, recalibrate or replace, serve
  again, on two 12x12 chips with the result cache off.

Every ``PoolResponse`` field, the whole ``pool.snapshot()`` (counters,
histograms, shard and breaker state, fault census) and each chip's
``template_cache_info()`` after each drain are recorded bit-exactly
(``float.hex``) and must match ``pool_fanout_golden.json``.

Regenerate the fixture (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_pool_fanout_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.accelerator import DistanceAccelerator
from repro.accelerator.params import PAPER_PARAMS
from repro.faults import DriftFault, FaultInjector, StuckAtFault
from repro.serving import AcceleratorPool, PoolBackend, PoolConfig

FIXTURE = pathlib.Path(__file__).with_name("pool_fanout_golden.json")
SEED = 1606
COUNTING = ("edit", "hamming", "lcs")
MIX = {
    "dtw": 0.30,
    "edit": 0.05,
    "hamming": 0.25,
    "hausdorff": 0.05,
    "lcs": 0.20,
    "manhattan": 0.15,
}


def _exact(value):
    """JSON-able, bit-exact rendering of a recorded value."""
    if isinstance(value, dict):
        return {str(k): _exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_exact(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def _observe(pool, responses):
    return {
        "responses": [
            _exact(dataclasses.asdict(r)) for r in responses
        ],
        "snapshot": _exact(pool.snapshot()),
        "templates": [
            _exact(shard.accelerator.template_cache_info())
            for shard in pool.shards
        ],
    }


def _kwargs(function):
    return {"threshold": 0.5} if function in COUNTING else {}


def _knn(rng):
    length, classes, per_class = 16, 5, 6
    t = np.linspace(0.0, 1.0, length)
    prototypes = [
        sum(
            rng.normal(0.0, 1.0 / k)
            * np.sin(2.0 * np.pi * k * t + rng.uniform(0.0, 2.0 * np.pi))
            for k in range(1, 5)
        )
        for _ in range(classes)
    ]

    def instance(label):
        curve = prototypes[label] * rng.uniform(0.8, 1.2)
        curve = curve + rng.normal(0.0, 0.3, length)
        return 0.5 * (curve - curve.mean()) / curve.std()

    train = [instance(c) for c in range(classes) for _ in range(per_class)]
    pool = AcceleratorPool(n_shards=4)
    observed = []
    for _ in range(4):
        arrivals = pool.virtual_now + np.cumsum(rng.exponential(3.0e-7, 2))
        queries = [instance(int(rng.integers(classes))) for _ in range(2)]
        for query, arrival in zip(queries, arrivals):
            for series in train:
                pool.submit("dtw", query, series, arrival_s=float(arrival))
        observed.append(_observe(pool, pool.drain()))
    return observed


def _serving(rng):
    functions = sorted(MIX)
    probabilities = np.array([MIX[f] for f in functions])
    probabilities /= probabilities.sum()

    def length(function):
        return 16 if function in ("hamming", "manhattan") else 8

    def draw(function, shape):
        if function in COUNTING:
            return rng.integers(0, 4, size=shape).astype(np.float64)
        return 0.5 * rng.normal(size=shape)

    banks = {f: draw(f, (8, length(f))) for f in functions}
    pool = AcceleratorPool(n_shards=4)
    observed = []
    for _ in range(3):
        picks = rng.choice(len(functions), size=64, p=probabilities)
        hot = rng.random(64) < 0.5
        arrivals = pool.virtual_now + np.cumsum(rng.exponential(2.0e-8, 64))
        for k in range(64):
            function = functions[picks[k]]
            if hot[k]:
                i, j = rng.integers(0, 8, size=2)
                p, q = banks[function][i], banks[function][j]
            else:
                p, q = draw(function, (2, length(function)))
            pool.submit(
                function,
                p,
                q,
                arrival_s=float(arrivals[k]),
                **_kwargs(function),
            )
        observed.append(_observe(pool, pool.drain()))
    return observed


def _backend(rng):
    pool = AcceleratorPool(n_shards=2)
    backend = PoolBackend(pool)
    observed = []
    for function in ("manhattan", "hamming", "dtw"):
        query = rng.integers(0, 4, size=12).astype(np.float64)
        candidates = [
            rng.integers(0, 4, size=12).astype(np.float64)
            for _ in range(20)
        ]
        values = backend.batch(
            function, query, candidates, **_kwargs(function)
        )
        observed.append(
            {"values": _exact(values), "pool": _exact(pool.snapshot())}
        )
    query = 0.5 * rng.normal(size=12)
    for q in (query, query.tolist()):
        candidates = list(0.5 * rng.normal(size=(12, 12)))
        values = backend.batch("manhattan", q, candidates)
        observed.append(
            {"values": _exact(values), "pool": _exact(pool.snapshot())}
        )
    series = list(0.5 * rng.normal(size=(6, 10)))
    for function in ("manhattan", "dtw"):
        observed.append(
            {
                "values": _exact(backend.pairwise(function, series)),
                "pool": _exact(pool.snapshot()),
            }
        )
    observed.append(
        {
            "responses": [
                _exact(dataclasses.asdict(pool.responses[i]))
                for i in sorted(pool.responses)
            ],
            "templates": [
                _exact(shard.accelerator.template_cache_info())
                for shard in pool.shards
            ],
        }
    )
    return observed


def _fault_churn(rng):
    params = dataclasses.replace(PAPER_PARAMS, array_rows=12, array_cols=12)
    scenario = (
        StuckAtFault(rate=0.05),
        DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003),
    )
    pool = AcceleratorPool(
        n_shards=2,
        config=PoolConfig(cache_capacity=0),
        accelerator_factory=lambda: DistanceAccelerator(
            params=params, validate=False
        ),
    )
    bank = 0.5 * rng.normal(size=(6, 8))
    observed = []

    def wave():
        arrivals = pool.virtual_now + np.cumsum(rng.exponential(2.0e-8, 36))
        queries = [
            bank[int(rng.integers(6))] + rng.normal(0.0, 0.125, 8)
            for _ in range(3)
        ]
        k = 0
        for function in ("dtw", "manhattan"):
            for query in queries:
                for c in range(6):
                    pool.submit(
                        function, query, bank[c], arrival_s=float(arrivals[k])
                    )
                    k += 1
        observed.append(_observe(pool, pool.drain()))

    for cycle in range(3):
        pool.inject_faults(
            FaultInjector(scenario, seed=int(rng.integers(2**31))),
            indices=[cycle % 2],
        )
        wave()
        pool.run_bist(now=pool.virtual_now)
        for shard in pool.shards:
            if shard.quarantined:
                pool.replace_shard(shard.index)
        wave()
    return observed


SCENARIOS = {
    "knn": _knn,
    "serving": _serving,
    "backend": _backend,
    "fault_churn": _fault_churn,
}


def _run(name):
    return SCENARIOS[name](np.random.default_rng([SEED, len(name)]))


def _golden_run():
    return {name: _run(name) for name in SCENARIOS}


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenario_matches_fixture(expected, scenario):
    observed = _run(scenario)
    golden = expected[scenario]
    assert len(observed) == len(golden)
    for step, (got, want) in enumerate(zip(observed, golden)):
        assert got == want, f"{scenario} step {step}"


def test_scenarios_cover_the_fanout_paths(expected):
    knn = expected["knn"][-1]["snapshot"]["counters"]
    assert knn["served"] == 4 * 60 and knn.get("cache_hits", 0) == 0
    serving = expected["serving"][-1]["snapshot"]["counters"]
    assert serving["cache_hits"] > 0 and serving["batched_requests"] > 0
    backend = expected["backend"][-1]["responses"]
    assert any(r["batch_size"] > 1 for r in backend)
    churn = expected["fault_churn"][-1]["snapshot"]["counters"]
    assert churn["faults_bist_detections"] > 0
    assert churn["faults_requalified"] + churn["shards_replaced"] > 0


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_golden_run(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
