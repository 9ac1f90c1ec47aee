"""Tests for the serving layer: pool, batcher, cache, metrics, bench."""

import json

import numpy as np
import pytest

from repro import distances as sw
from repro.accelerator import DistanceAccelerator
from repro.analog import IDEAL
from repro.datacenter import (
    Query,
    WorkloadSpec,
    comparison_table,
    generate_workload,
    simulate_accelerator,
    simulate_pool,
)
from repro.errors import (
    CapacityError,
    ConfigurationError,
    LengthMismatchError,
    SequenceError,
)
from repro.serving import (
    AcceleratorPool,
    DynamicBatcher,
    LatencyHistogram,
    MetricsRegistry,
    PoolBackend,
    PoolConfig,
    ResultCache,
    run_serve_bench,
)


def ideal_chip():
    return DistanceAccelerator(nonideality=IDEAL, quantise_io=False)


def make_pool(n_shards=1, **config_kwargs) -> AcceleratorPool:
    return AcceleratorPool(
        n_shards=n_shards,
        config=PoolConfig(**config_kwargs),
        accelerator_factory=ideal_chip,
    )


class TestMetrics:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        registry.counter("served").inc()
        registry.counter("served").inc(3)
        assert registry.counter("served").value == 4

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_set(self):
        registry = MetricsRegistry()
        registry.gauge("util").set(0.5)
        assert registry.gauge("util").value == 0.5

    def test_histogram_percentiles_bracket_data(self):
        hist = LatencyHistogram("latency")
        for value in np.linspace(1e-6, 1e-3, 500):
            hist.record(value)
        assert hist.count == 500
        assert 1e-6 <= hist.percentile(50.0) <= 1e-3
        assert hist.percentile(99.0) >= hist.percentile(50.0)
        assert hist.percentile(100.0) <= 1e-3 * 1.01

    def test_histogram_bucket_edges(self):
        hist = LatencyHistogram("h", low=1.0, high=100.0, n_buckets=2)
        # bounds are 1, 10, 100; buckets are [1, 10) and [10, 100]
        for value, bucket in (
            (10.0, 1),  # exactly on an inner bound: the upper bucket
            (1.0, 0),  # exactly on ``low``
            (100.0, 1),  # exactly on ``high``: clamped into the last
            (0.5, 0),  # below ``low``: clamped into the first
            (0.0, 0),  # a zero latency (cache hit)
            (1.0e3, 1),  # above ``high``: clamped into the last
        ):
            before = hist.counts.copy()
            hist.record(value)
            assert (hist.counts - before).tolist() == [
                int(i == bucket) for i in range(2)
            ], value

    def test_histogram_buckets_match_searchsorted(self, rng):
        hist = LatencyHistogram("latency")
        values = np.concatenate(
            [10.0 ** rng.uniform(-11, 3, 400), hist.bounds]
        )
        for value in values:
            hist.record(value)
        index = np.searchsorted(hist.bounds, values, side="right") - 1
        expected = np.bincount(
            np.clip(index, 0, hist.counts.size - 1),
            minlength=hist.counts.size,
        )
        np.testing.assert_array_equal(hist.counts, expected)

    def test_histogram_empty(self):
        hist = LatencyHistogram("latency")
        assert hist.mean == 0.0
        assert hist.percentile(99.0) == 0.0

    def test_registry_round_trips_json(self):
        registry = MetricsRegistry()
        registry.counter("served").inc()
        registry.histogram("latency").record(1e-6)
        data = json.loads(registry.to_json())
        assert data["counters"]["served"] == 1
        assert data["histograms"]["latency"]["count"] == 1


class TestResultCache:
    def test_hit_after_put(self):
        cache = ResultCache(capacity=4)
        key = cache.key("manhattan", [1.0, 2.0], [3.0, 4.0])
        assert cache.get(key) is None
        cache.put(key, 4.0)
        assert cache.get(key) == 4.0
        assert cache.hits == 1 and cache.misses == 1

    def test_quantisation_merges_nearby_inputs(self):
        cache = ResultCache(capacity=4)
        a = cache.key("manhattan", [1.0, 2.0], [3.0, 4.0])
        b = cache.key(
            "manhattan", [1.0 + 1e-9, 2.0], [3.0, 4.0 - 1e-9]
        )
        assert a == b

    def test_distinct_weights_distinct_keys(self):
        cache = ResultCache()
        a = cache.key("manhattan", [1.0], [2.0])
        b = cache.key("manhattan", [1.0], [2.0], weights=[2.0])
        assert a != b

    def test_lru_evicts_oldest(self):
        cache = ResultCache(capacity=2)
        keys = [cache.key("manhattan", [i], [0.0]) for i in range(3)]
        cache.put(keys[0], 0.0)
        cache.put(keys[1], 1.0)
        cache.get(keys[0])  # refresh 0 -> 1 is now oldest
        cache.put(keys[2], 2.0)
        assert cache.get(keys[0]) == 0.0
        assert cache.get(keys[1]) is None
        assert cache.evictions == 1

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        key = cache.key("manhattan", [1.0], [2.0])
        cache.put(key, 1.0)
        assert cache.get(key) is None
        assert len(cache) == 0


class TestDynamicBatcher:
    def test_fills_at_max_batch(self):
        batcher = DynamicBatcher(window_s=1.0, max_batch=3)
        assert batcher.add("k", 1, 0.0) is None
        assert batcher.add("k", 2, 0.0) is None
        assert batcher.add("k", 3, 0.0) == [1, 2, 3]
        assert batcher.pending() == 0

    def test_due_after_window(self):
        batcher = DynamicBatcher(window_s=1.0, max_batch=10)
        batcher.add("k", 1, 0.0)
        assert batcher.due(0.5) == []
        [(key, items)] = batcher.due(1.0)
        assert key == "k" and items == [1]

    def test_keys_partition_buckets(self):
        batcher = DynamicBatcher(window_s=1.0, max_batch=10)
        batcher.add("a", 1, 0.0)
        batcher.add("b", 2, 0.0)
        assert batcher.pending_for("a") == 1
        assert batcher.pending() == 2
        assert len(batcher.flush()) == 2

    def test_next_deadline(self):
        batcher = DynamicBatcher(window_s=2.0, max_batch=10)
        assert batcher.next_deadline() is None
        batcher.add("k", 1, 1.0)
        assert batcher.next_deadline() == 3.0


class TestPoolServing:
    def test_values_match_software(self, rng):
        pool = make_pool(n_shards=2)
        p, q = rng.normal(size=8), rng.normal(size=8)
        pool.submit("manhattan", p, q)
        pool.submit("dtw", p, q)
        responses = pool.drain()
        assert responses[0].value == pytest.approx(
            sw.manhattan(p, q), abs=1e-8
        )
        assert responses[1].value == pytest.approx(
            sw.dtw(p, q), abs=1e-8
        )

    def test_requests_spread_across_shards(self, rng):
        pool = make_pool(n_shards=4, enable_batching=False)
        for _ in range(4):
            pool.submit(
                "dtw",
                rng.normal(size=6),
                rng.normal(size=6),
                arrival_s=0.0,
            )
        responses = pool.drain()
        assert {r.shard for r in responses} == {0, 1, 2, 3}

    def test_burst_coalesces_into_one_batch(self, rng):
        pool = make_pool(n_shards=1, max_batch=8, cache_capacity=0)
        pairs = [
            (rng.normal(size=8), rng.normal(size=8)) for _ in range(8)
        ]
        for p, q in pairs:
            pool.submit("manhattan", p, q, arrival_s=0.0)
        responses = pool.drain()
        assert all(r.batched and r.batch_size == 8 for r in responses)
        assert pool.metrics.counter("batches").value == 1
        for response, (p, q) in zip(responses, pairs):
            assert response.value == pytest.approx(
                sw.manhattan(p, q), abs=1e-8
            )

    def test_window_expiry_splits_batches(self, rng):
        pool = make_pool(
            n_shards=1, batch_window_s=2e-6, cache_capacity=0
        )
        p, q = rng.normal(size=8), rng.normal(size=8)
        pool.submit("manhattan", p, q, arrival_s=0.0)
        pool.submit("manhattan", q, p, arrival_s=1e-6)
        pool.submit("manhattan", p, p, arrival_s=10e-6)
        responses = pool.drain()
        assert responses[0].batch_size == 2
        assert responses[1].batch_size == 2
        assert responses[2].batch_size == 1

    def test_matrix_functions_bypass_batcher(self, rng):
        pool = make_pool(n_shards=1)
        pool.submit(
            "dtw", rng.normal(size=6), rng.normal(size=6),
            arrival_s=0.0,
        )
        response = pool.drain()[0]
        assert not response.batched
        assert pool.metrics.counter("batches").value == 0

    def test_cache_hit_on_repeat(self, rng):
        pool = make_pool(n_shards=1, enable_batching=False)
        p, q = rng.normal(size=8), rng.normal(size=8)
        pool.submit("manhattan", p, q, arrival_s=0.0)
        pool.submit("manhattan", p, q, arrival_s=1e-3)
        first, second = pool.drain()
        assert not first.cached and second.cached
        assert second.value == first.value
        assert second.latency_s == 0.0
        assert pool.cache.hits == 1

    def test_cached_results_also_come_from_batches(self, rng):
        pool = make_pool(n_shards=1, max_batch=2)
        p, q = rng.normal(size=8), rng.normal(size=8)
        pool.submit("manhattan", p, q, arrival_s=0.0)
        pool.submit("manhattan", q, p, arrival_s=0.0)
        pool.submit("manhattan", p, q, arrival_s=1e-3)
        responses = pool.drain()
        assert responses[2].cached
        assert responses[2].value == responses[0].value

    def test_backpressure_sheds_excess_load(self, rng):
        pool = make_pool(
            n_shards=1,
            queue_depth=1,
            enable_batching=False,
            cache_capacity=0,
        )
        for _ in range(5):
            pool.submit(
                "manhattan",
                rng.normal(size=8),
                rng.normal(size=8),
                arrival_s=0.0,
            )
        responses = pool.drain()
        statuses = [r.status for r in responses]
        assert statuses.count("ok") == 1
        assert statuses.count("shed") == 4
        assert pool.metrics.counter("shed").value == 4
        assert all(
            r.value is None
            for r in responses
            if r.status == "shed"
        )

    def test_counters_are_consistent(self, rng):
        pool = make_pool(n_shards=2)
        for _ in range(6):
            pool.submit(
                "hamming",
                rng.normal(size=8),
                rng.normal(size=8),
                threshold=0.5,
                arrival_s=0.0,
            )
        pool.drain()
        counters = pool.metrics.as_dict()["counters"]
        assert counters["requests"] == 6
        assert (
            counters["served"] + counters.get("shed", 0)
            == counters["requests"]
        )
        assert (
            counters.get("cache_hits", 0)
            + counters.get("cache_misses", 0)
            == counters["requests"]
        )

    def test_fresh_pool_exports_every_counter_at_zero(self):
        counters = make_pool(n_shards=1).snapshot()["counters"]
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
        ):
            assert counters[name] == 0, name

    def test_snapshot_exports_shards_and_cache(self, rng):
        pool = make_pool(n_shards=2)
        pool.submit("manhattan", rng.normal(size=8), rng.normal(size=8))
        pool.drain()
        snapshot = json.loads(pool.to_json())
        assert len(snapshot["shards"]) == 2
        assert "hit_rate" in snapshot["cache"]
        assert "latency" in snapshot["histograms"]
        assert any(
            name.startswith("shard0") for name in snapshot["gauges"]
        )

    def test_utilisations_bounded(self, rng):
        pool = make_pool(n_shards=2)
        for _ in range(4):
            pool.submit(
                "dtw",
                rng.normal(size=6),
                rng.normal(size=6),
                arrival_s=0.0,
            )
        pool.drain()
        for utilisation in pool.utilisations():
            assert 0.0 <= utilisation <= 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PoolConfig(queue_depth=0)
        with pytest.raises(ConfigurationError):
            PoolConfig(latency_model="psychic")
        with pytest.raises(ConfigurationError):
            AcceleratorPool(n_shards=0)

    def test_measured_latency_model_runs(self, rng):
        pool = make_pool(n_shards=1, latency_model="measured")
        p, q = rng.normal(size=6), rng.normal(size=6)
        pool.submit("manhattan", p, q)
        response = pool.drain()[0]
        assert response.status == "ok"
        assert response.finish_s > response.start_s


class TestCallerBuffers:
    """``submit`` keeps its own copy of every input: a caller may reuse
    one buffer for successive requests."""

    def _record_batches(self, pool):
        """Per ``batch_pairs`` call: how many distinct input objects
        its pairs load (the DAC sharing pattern)."""
        seen = []
        for shard in pool.shards:
            original = shard.accelerator.batch_pairs

            def recorded(function, pairs, *args, _call=original, **kwargs):
                seen.append(len({id(a) for pair in pairs for a in pair}))
                return _call(function, pairs, *args, **kwargs)

            shard.accelerator.batch_pairs = recorded
        return seen

    def test_refilled_buffer_keeps_each_value(self, rng):
        q = rng.normal(size=8)
        fills = [rng.normal(size=8) for _ in range(3)]
        pool = AcceleratorPool(n_shards=2)
        buf = np.empty(8)
        for fill in fills:
            buf[:] = fill
            pool.submit("manhattan", buf, q)
        served = [r.value for r in pool.drain()]
        # The same stream with a fresh array per request.
        fresh = AcceleratorPool(n_shards=2)
        for fill in fills:
            fresh.submit("manhattan", fill.copy(), q)
        assert served == [r.value for r in fresh.drain()]
        assert len(set(served)) == 3
        for fill, value in zip(fills, served):
            assert value == pytest.approx(sw.manhattan(fill, q), abs=0.3)
        # The cache holds each fill's own value.
        pool.submit("manhattan", fills[0].copy(), q)
        (again,) = pool.drain()
        assert again.cached and again.value == served[0]

    def test_refilled_weights_keep_each_value(self, rng):
        p, q = rng.normal(size=8), rng.normal(size=8)
        settings = [rng.uniform(0.5, 1.5, size=8) for _ in range(2)]
        pool = AcceleratorPool(n_shards=1)
        w = np.empty(8)
        for setting in settings:
            w[:] = setting
            pool.submit("manhattan", p, q, weights=w)
        served = [r.value for r in pool.drain()]
        for setting, value in zip(settings, served):
            ref = sw.manhattan(p, q, weights=setting)
            assert value == pytest.approx(ref, abs=0.3)
        assert served[0] != served[1]

    def test_reused_query_still_shares_one_dac_row(self, rng):
        pool = AcceleratorPool(n_shards=1)
        loads = self._record_batches(pool)
        query = rng.normal(size=8)
        candidates = [rng.normal(size=8) for _ in range(6)]
        PoolBackend(pool).batch("manhattan", query, candidates)
        # One query row plus one row per candidate.
        assert loads == [1 + len(candidates)]

    def test_refilled_query_gets_its_own_row(self, rng):
        pool = AcceleratorPool(n_shards=1)
        loads = self._record_batches(pool)
        buf = rng.normal(size=8)
        candidates = [rng.normal(size=8) for _ in range(4)]
        for k, candidate in enumerate(candidates):
            buf[0] = float(k)
            pool.submit("manhattan", buf, candidate)
        pool.drain()
        assert loads == [2 * len(candidates)]

    def test_bad_inputs_raise_from_submit(self):
        pool = AcceleratorPool(n_shards=1)
        buf = np.ones(8)
        pool.submit("manhattan", buf, np.ones(8))
        buf[3] = np.nan
        with pytest.raises(SequenceError):
            pool.submit("manhattan", buf, np.ones(8))
        with pytest.raises(LengthMismatchError):
            pool.submit("manhattan", np.ones(8), np.ones(7))
        with pytest.raises(SequenceError):
            pool.submit("dtw", np.ones((2, 4)), np.ones(8))


class TestShardQueue:
    def test_finish_instants_never_decrease(self, monkeypatch, rng):
        """Queue depth pops finished work off the front of a shard's
        queue, which needs each shard's assigned finish instants in
        order, through batching, hedging, BIST, quarantine and repair."""
        from repro.faults import DriftFault, FaultInjector
        from repro.serving.pool import _Shard

        assigned = {}
        original = _Shard.assign

        def recorded(shard, finish_s, count=1):
            assigned.setdefault(id(shard), []).append(finish_s)
            original(shard, finish_s, count)

        monkeypatch.setattr(_Shard, "assign", recorded)
        pool = AcceleratorPool(
            n_shards=3,
            config=PoolConfig(
                queue_depth=8,
                bist_interval_s=2.0e-6,
                enable_hedging=True,
                hedge_min_samples=4,
            ),
        )
        drift = DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.02)
        pool.inject_faults(FaultInjector([drift], seed=3), indices=[1])
        for k in range(120):
            function = ("dtw", "manhattan", "lcs")[k % 3]
            kwargs = {"threshold": 0.5} if function == "lcs" else {}
            pool.submit(
                function,
                rng.normal(size=8),
                rng.normal(size=8),
                arrival_s=k * 1.0e-7,
                **kwargs,
            )
        pool.drain()
        assert pool.metrics.counter("faults_quarantined").value
        assert pool.metrics.counter("batches").value
        for finishes in assigned.values():
            assert finishes == sorted(finishes)


class TestBatchingSpeedup:
    @pytest.mark.parametrize("function", ["hamming", "manhattan"])
    def test_row_throughput_at_least_3x_serial(self, function, rng):
        """The acceptance benchmark: batched row serving vs one chip
        serving the same stream query by query, same cost model."""
        kwargs = {"threshold": 0.5} if function == "hamming" else {}
        pairs = [
            (rng.normal(size=16), rng.normal(size=16))
            for _ in range(64)
        ]
        pool = make_pool(n_shards=1, cache_capacity=0, max_batch=32)
        for p, q in pairs:
            pool.submit(function, p, q, arrival_s=0.0, **kwargs)
        responses = pool.drain()
        assert all(r.status == "ok" for r in responses)
        serial_s = simulate_accelerator(
            [Query(0.0, function, 16)] * len(pairs)
        ).makespan_s
        assert pool.row_busy_s > 0
        speedup = serial_s / pool.row_busy_s
        assert speedup >= 3.0


class TestPoolBackend:
    def test_batch_matches_software(self, rng):
        backend = PoolBackend(make_pool(n_shards=2))
        query = rng.normal(size=8)
        candidates = [rng.normal(size=8) for _ in range(5)]
        out = backend.batch("manhattan", query, candidates)
        expected = [sw.manhattan(query, c) for c in candidates]
        np.testing.assert_allclose(out, expected, atol=1e-8)

    def test_compute_and_pairwise(self, rng):
        backend = PoolBackend(make_pool(n_shards=1))
        p, q = rng.normal(size=6), rng.normal(size=6)
        assert backend.compute("dtw", p, q) == pytest.approx(
            sw.dtw(p, q), abs=1e-8
        )
        series = [rng.normal(size=5) for _ in range(3)]
        matrix = backend.pairwise("manhattan", series)
        assert matrix.shape == (3, 3)
        np.testing.assert_allclose(matrix, matrix.T)

    def test_empty_batch_leaves_other_requests_pending(self, rng):
        pool = make_pool(n_shards=1)
        backend = PoolBackend(pool)
        rid = pool.submit("manhattan", rng.normal(size=8), rng.normal(size=8))
        out = backend.batch("manhattan", rng.normal(size=8), [])
        assert out.shape == (0,) and out.dtype == np.float64
        assert backend.pairwise("manhattan", [rng.normal(size=8)]).shape == (
            1,
            1,
        )
        # The request queued by another caller is still waiting: the
        # empty calls did not drain the shared pool.
        assert [r.request_id for r in pool.drain()] == [rid]

    def test_shed_requests_are_retried(self, rng):
        pool = make_pool(
            n_shards=1,
            queue_depth=1,
            enable_batching=False,
            cache_capacity=0,
        )
        backend = PoolBackend(pool)
        query = rng.normal(size=8)
        candidates = [rng.normal(size=8) for _ in range(5)]
        out = backend.batch("manhattan", query, candidates)
        expected = [sw.manhattan(query, c) for c in candidates]
        np.testing.assert_allclose(out, expected, atol=1e-8)
        assert pool.metrics.counter("shed").value > 0

    def test_capacity_error_when_retries_exhausted(self, rng):
        pool = make_pool(
            n_shards=1,
            queue_depth=1,
            enable_batching=False,
            cache_capacity=0,
        )
        backend = PoolBackend(pool, max_retries=0)
        with pytest.raises(CapacityError):
            backend.batch(
                "manhattan",
                rng.normal(size=8),
                [rng.normal(size=8) for _ in range(6)],
            )


class TestBenchAndDatacenter:
    def test_serve_bench_report(self):
        report = run_serve_bench(n_queries=80, n_shards=2, seed=7)
        assert report.served + report.shed == 80
        assert report.throughput_qps > 0
        assert report.p99_latency_s >= report.mean_latency_s * 0.1
        assert 0.0 <= report.cache_hit_rate <= 1.0
        assert len(report.utilisations) == 2
        assert report.batches > 0
        assert report.row_speedup > 1.0
        text = report.table()
        assert "throughput" in text and "row speedup" in text
        parsed = json.loads(report.to_json())
        assert parsed["n_queries"] == 80

    def test_simulate_pool_in_comparison(self):
        spec = WorkloadSpec(
            arrival_rate_hz=2e7,
            duration_s=4e-6,
            length_choices=(8, 16),
            seed=5,
        )
        queries = generate_workload(spec)
        result = simulate_pool(queries, n_shards=2)
        assert result.served + result.dropped == len(queries)
        assert result.deployment.startswith("pooled accelerators")
        assert result.makespan_s > 0
        assert "pooled accelerators" in comparison_table([result])


class TestCli:
    def test_serve_bench_command(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve-bench",
                "--queries",
                "40",
                "--shards",
                "2",
                "--seed",
                "3",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_queries"] == 40
        assert data["served"] + data["shed"] == 40
