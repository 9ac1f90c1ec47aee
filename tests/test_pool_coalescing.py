"""Cross-request settle coalescing inside ``AcceleratorPool.drain``.

Coalescing is a pure host-side optimisation: every response (value,
status, virtual timestamps, shard, flags) and every counter, histogram
and energy figure must match the eager path, which settles each
request with its own ``DistanceAccelerator.compute``.  The eager path
is recovered by patching the pool's coalescing helper.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.accelerator import DistanceAccelerator
from repro.faults import (
    DriftFault,
    FaultInjector,
    ReadDisturbFault,
    StuckAtFault,
)
from repro.serving import AcceleratorPool, PoolConfig
from repro.serving.pool import COALESCE_MAX_ROWS

FAULTS = (
    StuckAtFault(rate=0.05),
    DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.01),
)


def _eager(self, acc, request, token):
    return acc.compute(
        request.function,
        request.p,
        request.q,
        weights=request.weights,
        **request.kwargs,
    )


def _count_calls(pool):
    """Record per-chip ``compute`` calls and ``compute_many`` rows."""
    calls = {"compute": 0, "compute_many": []}
    for shard in pool.shards:
        chip = shard.accelerator
        compute, compute_many = chip.compute, chip.compute_many

        def counted(*args, _compute=compute, **kwargs):
            calls["compute"] += 1
            return _compute(*args, **kwargs)

        def counted_many(
            function, pairs, *args, _many=compute_many, **kwargs
        ):
            calls["compute_many"].append(len(pairs))
            return _many(function, pairs, *args, **kwargs)

        chip.compute = counted
        chip.compute_many = counted_many
    return calls


def _fanout(rng, users=2, train=20, length=10, gap_s=3.0e-7):
    """1-NN DTW fan-out: every user query against every series."""
    series = [rng.normal(size=length) for _ in range(train)]
    queries = [rng.normal(size=length) for _ in range(users)]
    arrivals = np.cumsum(rng.exponential(gap_s, size=users))
    return [
        ("dtw", query, s, float(arrival))
        for query, arrival in zip(queries, arrivals)
        for s in series
    ]


def _serve(pool, stream):
    for function, p, q, arrival, *kwargs in stream:
        pool.submit(
            function, p, q, arrival_s=arrival, **(kwargs[0] if kwargs else {})
        )
    return pool.drain()


def _observe(pool, responses):
    snapshot = pool.snapshot()
    for shard in snapshot["shards"]:
        # Template-cache hit counts differ by design: one coalesced
        # solve does one lookup where the eager path does many.
        shard.pop("template_cache")
    return (
        [dataclasses.astuple(r) for r in responses],
        json.dumps(snapshot, sort_keys=True, default=str),
        pool.energy_j,
    )


def _compare(monkeypatch, build, drive):
    """Run ``drive(pool)`` coalesced and eager; assert identical."""
    coalesced_pool = build()
    calls = _count_calls(coalesced_pool)
    coalesced = drive(coalesced_pool)
    with monkeypatch.context() as patch:
        patch.setattr(AcceleratorPool, "_compute", _eager)
        eager_pool = build()
        eager = drive(eager_pool)
    assert coalesced[0] == eager[0]
    assert coalesced[1] == eager[1]
    assert coalesced[2] == eager[2]
    assert not coalesced_pool._settled_rows
    return calls


class TestCoalescedMatchesEager:
    def test_healthy_fanout(self, monkeypatch, rng):
        stream = _fanout(rng)
        calls = _compare(
            monkeypatch,
            lambda: AcceleratorPool(n_shards=4),
            lambda pool: _observe(pool, _serve(pool, stream)),
        )
        # 40 same-shape requests: one solve, no per-request settles.
        assert calls["compute_many"] == [len(stream)]
        assert calls["compute"] == 0

    def test_mixed_healthy_and_faulted_shards(self, monkeypatch, rng):
        stream = _fanout(rng, users=3)

        def build():
            pool = AcceleratorPool(n_shards=3)
            pool.inject_faults(FaultInjector(FAULTS, seed=5), indices=[1])
            return pool

        calls = _compare(
            monkeypatch,
            build,
            lambda pool: _observe(pool, _serve(pool, stream)),
        )
        # One solve per distinct chip signature (healthy, faulted).
        assert len(calls["compute_many"]) == 2

    def test_periodic_bist_mid_drain(self, monkeypatch, rng):
        # Users 0-1 arrive before the first BIST is due, users 2-3
        # after: the drifted shard serves (and coalesces rows for every
        # user), BIST repairs it mid-drain, then it serves again.
        arrivals = (0.0, 1.0e-6, 4.0e-6, 5.0e-6)
        stream = [
            (function, p, q, arrivals[k // 12])
            for k, (function, p, q, _) in enumerate(
                _fanout(rng, users=4, train=12)
            )
        ]
        drift = DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.02)

        def build():
            pool = AcceleratorPool(
                n_shards=2,
                config=PoolConfig(
                    bist_interval_s=3.0e-6, cache_capacity=0
                ),
            )
            pool.inject_faults(FaultInjector([drift], seed=3), indices=[0])
            return pool

        def drive(pool):
            epoch = pool.shards[0].accelerator.fault_epoch
            responses = _serve(pool, stream)
            # The repair moved the fault epoch, retiring the rows the
            # drifted chip coalesced before it; shard 0 kept serving.
            assert pool.shards[0].accelerator.fault_epoch > epoch
            assert pool.metrics.counter("faults_requalified").value
            assert any(r.shard == 0 for r in responses[24:])
            return _observe(pool, responses)

        _compare(monkeypatch, build, drive)

    def test_quarantine_reroute(self, monkeypatch, rng):
        matrix = _fanout(rng, users=2, train=10, gap_s=1.0e-6)
        rows = [
            ("manhattan", rng.normal(size=8), rng.normal(size=8), t)
            for t in np.linspace(0.0, 3.0e-6, 12)
        ]
        stream = sorted(matrix + rows, key=lambda item: item[3])

        def build():
            pool = AcceleratorPool(
                n_shards=3,
                config=PoolConfig(
                    bist_interval_s=1.0e-6,
                    auto_repair=False,
                    batch_window_s=5.0e-6,
                ),
            )
            pool.inject_faults(FaultInjector(FAULTS, seed=8), indices=[2])
            return pool

        def drive(pool):
            responses = _serve(pool, stream)
            assert pool.shards[2].quarantined
            assert pool.metrics.counter("faults_retried").value
            return _observe(pool, responses)

        _compare(monkeypatch, build, drive)

    def test_deadlines_and_hedging(self, monkeypatch, rng):
        stream = _fanout(rng, users=3, train=16, gap_s=1.0e-8)

        def build():
            return AcceleratorPool(
                n_shards=2,
                config=PoolConfig(
                    default_deadline_s=4.0e-7,
                    enable_hedging=True,
                    hedge_min_samples=4,
                    queue_depth=16,
                ),
            )

        def drive(pool):
            responses = _serve(pool, stream)
            statuses = {r.status for r in responses}
            assert "deadline" in statuses, statuses
            return _observe(pool, responses)

        _compare(monkeypatch, build, drive)

    def test_single_request_drain_settles_alone(self, monkeypatch, rng):
        stream = _fanout(rng, users=1, train=1)
        calls = _compare(
            monkeypatch,
            lambda: AcceleratorPool(n_shards=2),
            lambda pool: _observe(pool, _serve(pool, stream)),
        )
        assert calls["compute"] == 1
        assert calls["compute_many"] == []

    def test_drain_larger_than_row_cap(self, monkeypatch, rng):
        stream = _fanout(rng, users=5, train=30, length=6)
        assert len(stream) > 2 * COALESCE_MAX_ROWS
        calls = _compare(
            monkeypatch,
            lambda: AcceleratorPool(n_shards=2, config=PoolConfig(queue_depth=256)),
            lambda pool: _observe(pool, _serve(pool, stream)),
        )
        assert max(calls["compute_many"]) == COALESCE_MAX_ROWS
        assert sum(calls["compute_many"]) == len(stream)

    def test_kwargs_and_weights_split_keys(self, monkeypatch, rng):
        weights = rng.uniform(0.5, 1.5, size=(8, 8))
        stream = []
        for k in range(24):
            p, q = rng.normal(size=8), rng.normal(size=8)
            kwargs = [
                {},
                {"band": 0.25},
                {"weights": weights},
                {"threshold": 0.5},
            ][k % 4]
            function = "lcs" if "threshold" in kwargs else "dtw"
            stream.append((function, p, q, k * 1.0e-8, kwargs))
        calls = _compare(
            monkeypatch,
            lambda: AcceleratorPool(n_shards=2),
            lambda pool: _observe(pool, _serve(pool, stream)),
        )
        assert sorted(calls["compute_many"]) == [6, 6, 6, 6]


def _sequential(self, requests):
    """No settle groups: every request takes the per-request path."""


class TestPlanMatchesSequential:
    """The plan loop and bulk completion leave the state the
    per-request path leaves: the same responses, counters, histograms,
    busy times and energy, bit for bit."""

    @staticmethod
    def _compare(monkeypatch, build, streams):
        def drive(pool):
            responses = [r for s in streams for r in _serve(pool, s)]
            return _observe(pool, responses)

        planned_pool = build()
        planned = drive(planned_pool)
        with monkeypatch.context() as patch:
            patch.setattr(AcceleratorPool, "_index_settles", _sequential)
            sequential = drive(build())
        assert planned == sequential
        return planned_pool

    def test_mixed_traffic_with_batching_and_repeats(self, monkeypatch, rng):
        # One settle group of DTW pairs arriving one by one, a fan-out,
        # and batched row requests whose windows fall due between the
        # group's arrivals, with a threshold function; the second drain
        # repeats the first, so its answers come from the cache.
        stream = _fanout(rng, users=2, train=10, length=8, gap_s=5.0e-7)
        for t in np.linspace(0.0, 2.0e-6, 40):
            p, q = rng.normal(size=8), rng.normal(size=8)
            stream.append(("dtw", p, q, float(t)))
        for t in np.linspace(0.0, 2.0e-6, 6):
            p, q = rng.normal(size=8), rng.normal(size=8)
            stream.append(("manhattan", p, q, float(t)))
            stream.append(("lcs", p, q, float(t), {"threshold": 0.5}))
        stream.sort(key=lambda item: item[3])
        repeat = [
            (function, p, q, arrival + 2.0e-6, *kwargs)
            for function, p, q, arrival, *kwargs in stream
        ]
        pool = self._compare(
            monkeypatch,
            lambda: AcceleratorPool(
                n_shards=3, config=PoolConfig(batch_window_s=3.0e-7)
            ),
            [stream, repeat],
        )
        counters = pool.metrics.as_dict()["counters"]
        assert counters["batches"] and counters["cache_hits"]

    def test_shedding_and_mid_drain_bist(self, monkeypatch, rng):
        # A short queue sheds part of each burst; a drifted shard is
        # repaired by a BIST sweep that falls due mid-drain.
        stream = [
            (function, p, q, arrival * 4.0)
            for function, p, q, arrival in _fanout(
                rng, users=4, train=12, length=8, gap_s=1.0e-6
            )
        ]
        drift = DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.02)

        def build():
            pool = AcceleratorPool(
                n_shards=2,
                config=PoolConfig(
                    queue_depth=5,
                    bist_interval_s=3.0e-6,
                    batch_window_s=1.0e-7,
                ),
            )
            pool.inject_faults(FaultInjector([drift], seed=3), indices=[0])
            return pool

        pool = self._compare(monkeypatch, build, [stream])
        counters = pool.metrics.as_dict()["counters"]
        assert counters["shed"] and counters["faults_bist_runs"]


class TestDrainState:
    def test_rows_cleared_when_drain_raises(self, rng):
        pool = AcceleratorPool(n_shards=2)
        stored = []
        original = pool._token

        def failing(acc):
            # Fail the second placement, after the first one solved
            # the group and kept its other rows.
            if pool._planned:
                stored.append(len(pool._settled_rows))
                raise RuntimeError("boom")
            return original(acc)

        pool._token = failing
        with pytest.raises(RuntimeError):
            _serve(pool, _fanout(rng, users=1, train=8))
        assert stored == [7]
        # The request placed before the failure was answered.
        assert pool.responses[0].status == "ok"
        assert not pool._planned
        assert not pool._settled_rows
        assert not pool._settle_groups
        assert not pool._settle_key_of


class TestValueSignature:
    def test_identical_chips_share_a_signature(self):
        a, b = DistanceAccelerator(), DistanceAccelerator()
        assert a.value_signature() == b.value_signature()
        ideal = DistanceAccelerator(quantise_io=False)
        assert ideal.value_signature() != a.value_signature()

    def test_faulted_chip_signature_tracks_fault_epoch(self):
        chip = DistanceAccelerator()
        healthy = chip.value_signature()
        FaultInjector(FAULTS, seed=2).inject(chip)
        faulted = chip.value_signature()
        assert faulted != healthy
        assert faulted != DistanceAccelerator().value_signature()
        chip.invalidate_templates()
        assert chip.value_signature() != faulted
        chip.clear_faults()
        assert chip.value_signature() == healthy

    def test_read_disturb_has_no_signature(self):
        chip = DistanceAccelerator()
        FaultInjector([ReadDisturbFault(sigma=0.01)], seed=1).inject(chip)
        assert chip.value_signature() is None
        assert not chip.vectorizes("dtw", 8, 8)

    def test_vectorizes_only_untiled_shapes(self):
        chip = DistanceAccelerator()
        rows = chip.params.array_rows
        assert chip.vectorizes("dtw", rows, rows)
        assert not chip.vectorizes("dtw", rows + 1, 4)
        assert chip.vectorizes("manhattan", chip.params.array_cols, 0)
        assert not chip.vectorizes(
            "manhattan", chip.params.array_cols + 1, 0
        )
