"""Characterization test: one seeded mixed drain, pinned to a fixture.

The drain exercises every branch of the pool's request path at once —
cache hits, row batching, coalesced DTW settles, deadline expiry at
admission and after execution, shedding at a small queue depth,
hedging, a periodic BIST that quarantines a drifted shard (rerouting
its batcher) and repairs it, all under the ``measured`` latency model —
and its responses and counters must match ``pool_golden.json``.

Regenerate the fixture (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_pool_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.accelerator import DistanceAccelerator
from repro.accelerator.params import PAPER_PARAMS
from repro.faults import DriftFault, FaultInjector
from repro.serving import AcceleratorPool, PoolConfig
from repro.serving.cache import ResultCache

FIXTURE = pathlib.Path(__file__).with_name("pool_golden.json")
SEED = 2017
LENGTH = 6
#: Small chips keep the measured settles and the repair cheap.
PARAMS = dataclasses.replace(PAPER_PARAMS, array_rows=12, array_cols=12)


def _pool() -> AcceleratorPool:
    pool = AcceleratorPool(
        n_shards=3,
        config=PoolConfig(
            queue_depth=4,
            latency_model="measured",
            bist_interval_s=3.0e-6,
            enable_hedging=True,
            hedge_min_samples=4,
            hedge_percentile=60.0,
        ),
        accelerator_factory=lambda: DistanceAccelerator(params=PARAMS),
    )
    drift = DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.02)
    pool.inject_faults(FaultInjector([drift], seed=3), indices=[1])
    return pool


#: ``(arrival offset, budget)`` of each burst's deadlined requests.
DEADLINES = ((1.0e-7, -1.0e-7), (1.0e-6, 2.5e-8), (1.0e-7, 5.0e-6))


def _stream(rng: np.random.Generator):
    """``(function, p, q, arrival_s, kwargs)`` of the golden drain."""
    bank = [rng.normal(size=LENGTH) for _ in range(12)]
    stream = []
    t = 0.0
    for burst in range(6):
        query = rng.normal(size=LENGTH)
        # A 1-NN DTW fan-out at one instant: coalesces, and overflows
        # the small queues (shedding, hedging).
        for series in bank:
            stream.append(("dtw", query, series, t, {}))
        # Row queries trickling in: batched, some still in a batcher
        # when the BIST quarantines their shard.
        for k in range(4):
            p, q = rng.normal(size=LENGTH), rng.normal(size=LENGTH)
            stream.append(("manhattan", p, q, t + k * 2.0e-7, {}))
        # Deadlines: one already past at arrival, one that passes the
        # admission estimate but not reconfiguration plus the measured
        # settle, one comfortable.
        for offset, budget in DEADLINES:
            p, q = rng.normal(size=LENGTH), rng.normal(size=LENGTH)
            arrival = t + offset
            stream.append(
                ("dtw", p, q, arrival, {"deadline_s": arrival + budget})
            )
        # A repeat of an earlier burst's query: a result-cache hit.
        if burst:
            function, p, q, _, kwargs = stream[0]
            stream.append((function, p, q, t + 5.0e-7, kwargs))
        t += 1.3e-6
    return stream


def _serve(pool, stream):
    for function, p, q, arrival, kwargs in stream:
        pool.submit(function, p, q, arrival_s=arrival, **kwargs)
    return pool.drain()


def _observe(pool, responses):
    snapshot = pool.snapshot()
    return {
        "responses": [dataclasses.asdict(r) for r in responses],
        "counters": snapshot["counters"],
        "shards": [
            {
                key: shard[key]
                for key in ("served", "batches", "health", "quarantined")
            }
            for shard in snapshot["shards"]
        ],
    }


def _golden_run():
    pool = _pool()
    return _observe(pool, _serve(pool, _stream(np.random.default_rng(SEED))))


@pytest.fixture(scope="module")
def observed():
    return _golden_run()


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


class TestGoldenDrain:
    def test_stream_covers_every_branch(self, expected):
        responses = expected["responses"]
        counters = expected["counters"]
        statuses = {r["status"] for r in responses}
        assert statuses == {"ok", "shed", "deadline"}
        assert any(r["cached"] for r in responses)
        assert any(r["batched"] and r["batch_size"] > 1 for r in responses)
        assert any(r["hedged"] for r in responses)
        expired = [r for r in responses if r["status"] == "deadline"]
        # Admission fail-fast answers at arrival; post-execution
        # expiry carries the settle's finish time.
        assert any(r["finish_s"] == r["arrival_s"] for r in expired)
        assert any(r["finish_s"] > r["arrival_s"] for r in expired)
        for name in (
            "faults_quarantined",
            "faults_retried",
            "faults_requalified",
            "hedges",
            "shed",
            "cache_hits",
        ):
            assert counters[name] > 0, name

    def test_responses_match_fixture(self, observed, expected):
        assert len(observed["responses"]) == len(expected["responses"])
        for got, want in zip(observed["responses"], expected["responses"]):
            value, golden = got.pop("value"), want.pop("value")
            assert got == want
            if golden is None:
                assert value is None
            else:
                assert value == pytest.approx(golden, rel=1e-12, abs=0.0)

    def test_counters_match_fixture(self, observed, expected):
        assert observed["counters"] == expected["counters"]
        assert observed["shards"] == expected["shards"]


def test_cache_key_built_once_per_request(monkeypatch, rng):
    """Every submitted request quantises its cache key exactly once,
    even when a quarantine re-admits it to another shard."""
    calls = []
    original = ResultCache.key

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ResultCache, "key", counted)
    pool = AcceleratorPool(n_shards=2, config=PoolConfig(batch_window_s=1.0))
    for _ in range(4):
        pool.submit("manhattan", rng.normal(size=8), rng.normal(size=8))
    pool.submit("dtw", rng.normal(size=8), rng.normal(size=8))
    pool._pending, drained = [], pool._pending
    for request in drained:
        pool._admit(request)
    batched = [s for s in pool.shards if s.batcher.pending()]
    assert batched
    pool._quarantine(batched[0], now=0.0)
    assert pool.metrics.counter("faults_retried").value > 0
    pool.drain()
    assert sorted(r.status for r in pool.responses.values()) == ["ok"] * 5
    assert len(calls) == 5, calls


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_golden_run(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
