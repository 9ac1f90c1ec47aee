"""Tests for the data-center workload/deployment simulation."""

import numpy as np
import pytest

from repro.datacenter import (
    AcceleratorServer,
    CpuServer,
    Query,
    SingleFunctionFarm,
    WorkloadSpec,
    comparison_table,
    generate_workload,
    mix_of,
    simulate_accelerator,
    simulate_cpu,
    simulate_farm,
    simulate_pool,
)
from repro.errors import ConfigurationError
from repro.serving import PoolConfig


class TestWorkload:
    def test_deterministic_per_seed(self):
        spec = WorkloadSpec(duration_s=1e-4, seed=3)
        a = generate_workload(spec)
        b = generate_workload(spec)
        assert [q.arrival_s for q in a] == [q.arrival_s for q in b]

    def test_arrivals_sorted_and_within_duration(self):
        spec = WorkloadSpec(duration_s=1e-4, seed=1)
        queries = generate_workload(spec)
        arrivals = [q.arrival_s for q in queries]
        assert arrivals == sorted(arrivals)
        assert all(0 <= a < spec.duration_s for a in arrivals)

    def test_rate_approximately_met(self):
        spec = WorkloadSpec(
            arrival_rate_hz=1e6, duration_s=2e-3, seed=2
        )
        queries = generate_workload(spec)
        assert 1600 < len(queries) < 2400  # ~2000 expected

    def test_mix_respected(self):
        spec = WorkloadSpec(
            duration_s=5e-3,
            seed=4,
            mix={"dtw": 1.0, "hamming": 1.0},
        )
        mix = mix_of(generate_workload(spec))
        assert set(mix) == {"dtw", "hamming"}
        assert mix["dtw"] == pytest.approx(0.5, abs=0.1)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(arrival_rate_hz=0.0)
        with pytest.raises(ConfigurationError):
            Query(arrival_s=-1.0, function="dtw", length=8)


class TestServers:
    def test_accelerator_reconfiguration_penalty(self):
        server = AcceleratorServer()
        first = server.service_time(Query(0.0, "dtw", 20))
        same = server.service_time(Query(0.0, "dtw", 20))
        assert first > same  # first query paid the configuration load
        switched = server.service_time(Query(0.0, "hamming", 20))
        repeat = server.service_time(Query(0.0, "hamming", 20))
        assert switched > repeat  # function change paid again

    def test_cpu_service_scales_quadratically(self):
        server = CpuServer()
        t10 = server.service_time(Query(0.0, "dtw", 10))
        t40 = server.service_time(Query(0.0, "dtw", 40))
        assert t40 / t10 > 4.0

    def test_farm_rejects_missing_function(self):
        farm = SingleFunctionFarm(functions=["dtw"])
        assert not farm.can_serve(Query(0.0, "lcs", 10))
        with pytest.raises(ConfigurationError):
            farm.service_time(Query(0.0, "lcs", 10))

    def test_farm_unknown_device_rejected(self):
        with pytest.raises(ConfigurationError):
            SingleFunctionFarm(functions=["cosine"])


class TestSimulation:
    @pytest.fixture
    def stream(self):
        return generate_workload(
            WorkloadSpec(
                arrival_rate_hz=2e5, duration_s=1e-3, seed=7
            )
        )

    def test_accelerator_serves_everything(self, stream):
        result = simulate_accelerator(stream)
        assert result.served == len(stream)
        assert result.dropped == 0
        assert result.p99_sojourn_s >= result.mean_sojourn_s

    def test_accelerator_beats_cpu_latency_and_energy(self, stream):
        acc = simulate_accelerator(stream)
        cpu = simulate_cpu(stream)
        assert acc.mean_sojourn_s < cpu.mean_sojourn_s
        assert acc.energy_per_query_j < cpu.energy_per_query_j / 100

    def test_partial_farm_drops_unmatched(self, stream):
        farm = SingleFunctionFarm(functions=["dtw", "hamming"])
        result = simulate_farm(stream, farm)
        assert result.dropped > 0
        assert result.served + result.dropped == len(stream)

    def test_full_farm_drops_nothing(self, stream):
        result = simulate_farm(stream)
        assert result.dropped == 0

    def test_farm_idle_energy_positive(self, stream):
        result = simulate_farm(stream)
        assert result.idle_energy_j > 0.0

    def test_utilisation_bounded(self, stream):
        for result in (
            simulate_accelerator(stream),
            simulate_cpu(stream),
            simulate_farm(stream),
        ):
            assert 0.0 <= result.utilisation <= 1.0

    def test_fifo_conservation(self):
        # Two back-to-back queries: the second waits for the first.
        queries = [
            Query(0.0, "dtw", 40),
            Query(1e-12, "dtw", 40),
        ]
        result = simulate_accelerator(queries)
        assert result.mean_sojourn_s > 0
        assert result.makespan_s > 2 * 40e-9  # both services serialised

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_accelerator([])

    def test_table_renders(self, stream):
        text = comparison_table(
            [simulate_accelerator(stream), simulate_cpu(stream)]
        )
        assert "reconfigurable accelerator" in text
        assert "uJ" in text


class TestOneCostModel:
    """The pool and the data-center server bill a query by one rule."""

    FUNCTIONS = ("dtw", "edit", "hamming", "hausdorff", "lcs", "manhattan")

    @pytest.mark.parametrize("seed", range(20))
    def test_one_shard_pool_matches_server(self, seed):
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(20e-9, size=40))
        queries = [
            Query(
                float(arrival),
                str(rng.choice(self.FUNCTIONS)),
                int(rng.choice([8, 16])),
            )
            for arrival in arrivals
        ]
        server = simulate_accelerator(queries)
        pool = simulate_pool(
            queries,
            n_shards=1,
            config=PoolConfig(enable_batching=False, cache_capacity=0),
            seed=seed,
        )
        assert pool.served == server.served == len(queries)
        assert pool.mean_sojourn_s == server.mean_sojourn_s
        assert pool.p99_sojourn_s == server.p99_sojourn_s
        assert pool.busy_energy_j == server.busy_energy_j
