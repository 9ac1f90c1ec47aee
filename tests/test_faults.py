"""Tests for the fault-injection / reliability subsystem.

Covers the fault models' inject → detect → repair round trips, the
BIST classifier, the pool's quarantine/retry/requalify machinery, and
the end-to-end campaign acceptance numbers (detection >= 0.9, served
accuracy recovered to within 1 % of the fault-free baseline).
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.accelerator import PAPER_ADC, AdcArray, DistanceAccelerator
from repro.accelerator.params import PAPER_PARAMS
from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    ReproError,
    ShardUnhealthyError,
)
from repro.faults import (
    AdcOffsetFault,
    BistRunner,
    DriftFault,
    FaultInjector,
    FaultState,
    LostPairFault,
    ReadDisturbFault,
    StuckAtFault,
    STUCK_RON,
    STUCK_ROFF,
    fresh_state,
    recalibrate,
    run_campaign,
    smoke_campaign,
)
from repro.serving import AcceleratorPool, PoolConfig

SMALL = dataclasses.replace(PAPER_PARAMS, array_rows=12, array_cols=12)

AGED = DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003)


def small_chip() -> DistanceAccelerator:
    return DistanceAccelerator(params=SMALL, validate=False)


def make_pool(n_shards=2, **config_kwargs) -> AcceleratorPool:
    return AcceleratorPool(
        n_shards=n_shards,
        config=PoolConfig(cache_capacity=0, **config_kwargs),
        accelerator_factory=small_chip,
    )


class TestFaultState:
    def test_fresh_state_is_clean(self):
        state = fresh_state(4, 4)
        assert state.n_sites == 16
        assert state.n_faulty == 0
        assert not state.has_faults
        assert state.usable_rows() == 4
        assert state.usable_cols() == 4

    def test_stuck_weight_magnitudes(self):
        state = fresh_state(2, 2)
        r_ref = math.sqrt(
            state.device.r_on * state.device.r_off
        )
        assert state.stuck_weight(STUCK_RON, 1.0) == pytest.approx(
            r_ref / state.device.r_on
        )
        assert state.stuck_weight(STUCK_ROFF, 1.0) == pytest.approx(
            r_ref / state.device.r_off
        )
        # Sign of the programmed weight survives the fault.
        assert state.stuck_weight(STUCK_RON, -2.0) < 0

    def test_apply_weight_uses_drift_and_mismatch(self):
        state = fresh_state(2, 2)
        state.drift[0] = 1.1
        state.mismatch[0] = 0.9
        assert state.apply_weight(0, 1.0) == pytest.approx(
            1.1 * 0.9
        )
        # Site 1 untouched.
        assert state.apply_weight(1, 1.0) == pytest.approx(1.0)

    def test_disable_site_remaps_round_robin(self):
        state = fresh_state(2, 2)
        assert state.site_for_stage(0) == 0
        state.disable_site(0)
        assert state.site_for_stage(0) == 1
        assert state.site_for_stage(3) == 1  # wraps over 1,2,3

    def test_usable_rows_shrink_by_whole_rows(self):
        state = fresh_state(3, 4)
        state.disable_site(0)
        assert state.usable_rows() == 2  # 11 // 4
        assert state.usable_cols() == 4

    def test_cannot_kill_last_site(self):
        state = fresh_state(1, 2)
        state.disable_site(0)
        with pytest.raises(FaultInjectionError):
            state.disable_site(1)

    def test_summary_is_jsonable(self):
        state = fresh_state(2, 2)
        state.stuck[0] = STUCK_RON
        text = json.dumps(state.summary())
        assert "n_stuck_ron" in text


class TestFaultModels:
    def test_rate_and_scope_validation(self):
        with pytest.raises(FaultInjectionError):
            StuckAtFault(rate=1.5)
        with pytest.raises(FaultInjectionError):
            StuckAtFault(scope="die")
        with pytest.raises(FaultInjectionError):
            StuckAtFault(mode="open")

    def test_row_scope_hits_whole_rows(self):
        state = fresh_state(4, 4)
        rng = np.random.default_rng(0)
        StuckAtFault(rate=0.5, scope="row", mode="ron").apply(
            state, rng
        )
        stuck = state.stuck.reshape(4, 4)
        for row in stuck:
            assert row.all() or not row.any()

    def test_chip_scope_is_all_or_nothing(self):
        rng = np.random.default_rng(1)
        hit = []
        for _ in range(8):
            state = fresh_state(3, 3)
            LostPairFault(rate=0.5, scope="chip").apply(state, rng)
            hit.append(state.n_faulty)
        assert set(hit) <= {0, 9}
        assert 0 in hit and 9 in hit

    def test_drift_sigma_grows_with_age_and_cycles(self):
        young = DriftFault(age_s=1.0e3)
        old = DriftFault(age_s=1.0e8)
        cycled = DriftFault(age_s=1.0e3, cycles=10_000)
        assert old.sigma > young.sigma
        assert cycled.sigma > young.sigma

    def test_read_disturb_sets_chip_sigma(self):
        state = fresh_state(2, 2)
        ReadDisturbFault(sigma=0.01).apply(
            state, np.random.default_rng(0)
        )
        assert state.read_disturb_sigma == 0.01
        # Read noise re-draws per weight application.
        a = state.apply_weight(0, 1.0)
        b = state.apply_weight(0, 1.0)
        assert a != b

    def test_adc_offset_faults_both_converters(self):
        state = fresh_state(2, 2)
        AdcOffsetFault(
            adc_sigma_v=1e-3, comparator_sigma_v=1e-3
        ).apply(state, np.random.default_rng(2))
        assert state.adc_offset_v != 0.0
        assert state.comparator_offset_v != 0.0


class TestFaultInjector:
    def test_requires_models(self):
        with pytest.raises(FaultInjectionError):
            FaultInjector([])
        with pytest.raises(FaultInjectionError):
            FaultInjector(["stuck"])

    def test_same_seed_same_faults(self):
        injector = FaultInjector([StuckAtFault(rate=0.1)], seed=5)
        a = injector.build_state(8, 8)
        b = injector.build_state(8, 8)
        assert np.array_equal(a.stuck, b.stuck)

    def test_chip_index_varies_the_draw(self):
        injector = FaultInjector([StuckAtFault(rate=0.1)], seed=5)
        a = injector.build_state(8, 8, index=0)
        b = injector.build_state(8, 8, index=1)
        assert not np.array_equal(a.stuck, b.stuck)

    def test_inject_attaches_state_to_chip(self):
        chip = small_chip()
        injector = FaultInjector([StuckAtFault(rate=0.05)], seed=3)
        state = injector.inject(chip)
        assert chip.fault_state is state
        chip.clear_faults()
        assert chip.fault_state is None


class TestBist:
    def test_fault_free_chip_probes_exactly_golden(self):
        chip = small_chip()
        report = BistRunner(n_vectors=1, length=8).probe(chip)
        assert report.is_healthy
        assert report.max_error == 0.0

    def test_goldens_follow_the_probed_chips_converters(self):
        # One runner probes a default chip, then a healthy chip with a
        # 6-bit ADC: the second compares against its own twin's goldens.
        runner = BistRunner(n_vectors=1, length=8)
        assert runner.probe(small_chip()).max_error == 0.0
        coarse = DistanceAccelerator(
            params=SMALL,
            adc=AdcArray(dataclasses.replace(PAPER_ADC, bits=6)),
            validate=False,
        )
        report = runner.probe(coarse)
        assert report.is_healthy
        assert report.max_error == 0.0

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            BistRunner(n_vectors=0)
        with pytest.raises(ConfigurationError):
            BistRunner(
                degraded_threshold=0.2, failed_threshold=0.1
            )

    def test_report_sorted_and_jsonable(self):
        chip = small_chip()
        FaultInjector([StuckAtFault(rate=0.05)], seed=1).inject(chip)
        report = BistRunner(n_vectors=1, length=8).probe(chip)
        errors = [p.max_error for p in report.probes]
        assert errors == sorted(errors, reverse=True)
        assert report.worst_function == report.probes[0].function
        json.dumps(report.as_dict())
        assert "BIST" in report.render()

    def test_modelled_probe_time_accumulates(self):
        chip = small_chip()
        report = BistRunner(n_vectors=2, length=8).probe(chip)
        assert report.modelled_time_s > 0


class TestRoundTrips:
    """inject → detect → repair for every fault mechanism."""

    def _loop(self, models, seed=3):
        chip = small_chip()
        runner = BistRunner(n_vectors=1, length=8)
        state = FaultInjector(models, seed=seed).inject(chip)
        detect = runner.probe(chip)
        repair = recalibrate(chip)
        verdict = runner.probe(chip)
        return state, detect, repair, verdict

    def test_stuck_at_round_trip_disables_sites(self):
        state, detect, repair, verdict = self._loop(
            [StuckAtFault(rate=0.05)]
        )
        assert not detect.is_healthy
        assert repair.n_dead == state.disabled.sum() > 0
        assert repair.n_retuned == 0
        assert state.usable_rows() < SMALL.array_rows
        assert verdict.max_error < detect.max_error

    def test_drift_round_trip_retunes(self):
        state, detect, repair, verdict = self._loop([AGED])
        assert not detect.is_healthy
        # Re-tuning recovers nearly every site; the stochastic write
        # loop may fail to converge on a handful, which go dead.
        assert repair.repair_rate > 0.9
        assert verdict.status != "failed"
        # Residual ratio error on live sites sits at the tolerance.
        live = ~state.disabled
        assert np.abs(state.drift[live] - 1.0).max() < 0.005

    def test_lost_pair_round_trip_retunes(self):
        state, detect, repair, verdict = self._loop(
            [LostPairFault(rate=0.2, sigma=0.2)]
        )
        assert not detect.is_healthy
        assert repair.n_retuned > 0
        assert np.all(state.mismatch == 1.0)
        assert verdict.max_error < detect.max_error

    def test_adc_offset_round_trip_trims(self):
        chip = small_chip()
        state = FaultInjector(
            [AdcOffsetFault(adc_sigma_v=0.05)], seed=9
        ).inject(chip)
        assert state.adc_offset_v != 0.0
        report = recalibrate(chip)
        assert report.adc_offset_trimmed_v != 0.0
        assert state.adc_offset_v == 0.0
        assert state.comparator_offset_v == 0.0

    def test_mixed_scenario_report_arithmetic(self):
        _, _, repair, _ = self._loop(
            [StuckAtFault(rate=0.03), AGED]
        )
        assert repair.n_faulty == repair.n_retuned + repair.n_dead
        assert 0.0 <= repair.repair_rate <= 1.0
        json.dumps(repair.as_dict())

    def test_recalibrate_requires_fault_state(self):
        with pytest.raises(FaultInjectionError):
            recalibrate(small_chip())


class TestComputeWithFaults:
    def test_stuck_chip_returns_wrong_distances(self):
        clean = small_chip()
        chip = small_chip()
        FaultInjector(
            [StuckAtFault(rate=0.3, mode="ron")], seed=2
        ).inject(chip)
        rng = np.random.default_rng(0)
        p, q = rng.normal(size=8), rng.normal(size=8)
        good = clean.compute("dtw", p, q).value
        bad = chip.compute("dtw", p, q).value
        assert bad != pytest.approx(good, rel=1e-6)

    def test_dead_rows_force_extra_tiles(self):
        chip = small_chip()
        state = fresh_state(SMALL.array_rows, SMALL.array_cols)
        for site in range(SMALL.array_cols * 4):
            state.disabled[site] = True
        state._refresh_enabled()
        chip.inject_faults(state)
        assert chip.usable_rows == SMALL.array_rows - 4
        rng = np.random.default_rng(1)
        n = SMALL.array_rows - 2  # fits nominal, not usable
        result = chip.compute(
            "dtw", rng.normal(size=n), rng.normal(size=n)
        )
        assert result.tiles > 1


class TestPoolReliability:
    def test_bist_quarantines_and_requalifies(self):
        pool = make_pool(n_shards=2)
        pool.inject_faults(
            FaultInjector([StuckAtFault(rate=0.03), AGED], seed=4),
            indices=[0],
        )
        reports = pool.run_bist()
        assert not reports[0].is_healthy
        assert reports[1].is_healthy
        # Auto-repair requalified shard 0.
        assert not pool.shards[0].quarantined
        counters = pool.metrics.as_dict()["counters"]
        assert counters["faults_bist_detections"] == 1
        assert counters["faults_quarantined"] == 1
        assert counters["faults_requalified"] == 1
        assert counters["faults_dead_sites"] > 0
        assert 0 in pool.last_repairs

    def test_no_auto_repair_keeps_shard_out(self):
        pool = make_pool(n_shards=2, auto_repair=False)
        pool.inject_faults(
            FaultInjector([StuckAtFault(rate=0.03), AGED], seed=4),
            indices=[0],
        )
        pool.run_bist()
        assert pool.shards[0].quarantined
        assert pool.shards[0].health in ("degraded", "failed")
        rng = np.random.default_rng(0)
        for _ in range(4):
            pool.submit(
                "manhattan", rng.normal(size=8), rng.normal(size=8)
            )
        responses = pool.drain()
        assert all(r.status == "ok" for r in responses)
        assert all(r.shard == 1 for r in responses)

    def test_all_shards_quarantined_raises(self):
        pool = make_pool(n_shards=1, auto_repair=False)
        pool.inject_faults(
            FaultInjector([StuckAtFault(rate=0.05)], seed=4)
        )
        pool.run_bist()
        pool.submit("manhattan", [1.0, 2.0], [2.0, 1.0])
        with pytest.raises(ShardUnhealthyError):
            pool.drain()

    def test_quarantine_retries_in_flight_batch(self):
        pool = make_pool(
            n_shards=2,
            auto_repair=False,
            bist_interval_s=1.0,
            batch_window_s=10.0,
            max_batch=64,
        )
        pool.inject_faults(
            FaultInjector([StuckAtFault(rate=0.03), AGED], seed=4),
            indices=[0],
        )
        rng = np.random.default_rng(0)
        # Fill both shards' batchers, then trip the periodic BIST
        # with a late arrival: shard 0's pending work must complete
        # on shard 1.
        for k in range(6):
            pool.submit(
                "manhattan",
                rng.normal(size=8),
                rng.normal(size=8),
                arrival_s=0.0,
            )
        pool.submit(
            "manhattan",
            rng.normal(size=8),
            rng.normal(size=8),
            arrival_s=2.0,
        )
        responses = pool.drain()
        assert all(r.status == "ok" for r in responses)
        assert all(r.shard == 1 for r in responses)
        counters = pool.metrics.as_dict()["counters"]
        assert counters["faults_retried"] > 0

    def test_quarantine_clears_result_cache(self):
        pool = AcceleratorPool(
            n_shards=2,
            config=PoolConfig(cache_capacity=64, auto_repair=False),
            accelerator_factory=small_chip,
        )
        pool.submit("manhattan", [1.0, 2.0], [2.0, 1.0])
        pool.drain()
        assert len(pool.cache) > 0
        pool.inject_faults(
            FaultInjector([StuckAtFault(rate=0.03), AGED], seed=4),
            indices=[0],
        )
        pool.run_bist()
        assert len(pool.cache) == 0

    def test_snapshot_exports_fault_metrics(self):
        pool = make_pool(n_shards=2)
        data = pool.snapshot()
        counters = data["counters"]
        for name in (
            "faults_bist_runs",
            "faults_bist_detections",
            "faults_quarantined",
            "faults_requalified",
            "faults_retried",
            "faults_repaired_sites",
            "faults_dead_sites",
        ):
            assert counters[name] == 0
        assert data["gauges"]["faults_healthy_shards"] == 2
        assert data["shards"][0]["health"] == "healthy"
        assert data["shards"][0]["faults"] is None
        json.dumps(data)

    def test_pool_config_validation(self):
        with pytest.raises(ConfigurationError):
            PoolConfig(bist_interval_s=-1.0)
        with pytest.raises(ConfigurationError):
            PoolConfig(
                bist_degraded_threshold=0.5,
                bist_failed_threshold=0.1,
            )
        with pytest.raises(ConfigurationError):
            PoolConfig(fault_max_retries=-1)


class TestErrors:
    def test_fault_injection_error_hierarchy(self):
        assert issubclass(FaultInjectionError, ConfigurationError)
        assert issubclass(FaultInjectionError, ReproError)

    def test_shard_unhealthy_error_hierarchy(self):
        assert issubclass(ShardUnhealthyError, ReproError)
        assert issubclass(ShardUnhealthyError, RuntimeError)


class TestCampaign:
    def test_smoke_campaign_meets_acceptance(self):
        result = smoke_campaign()
        assert result.detection_rate >= 0.9
        assert result.repair_rate > 0.5
        # Served k-NN accuracy recovers to within 1 % of baseline.
        assert result.worst_accuracy_gap <= 0.01
        point = result.points[0]
        assert point.faulted.mean_error > point.baseline.mean_error
        assert (
            point.recovered.mean_error
            < point.faulted.mean_error
        )

    def test_campaign_json_round_trip(self):
        result = smoke_campaign()
        data = json.loads(result.to_json())
        assert data["points"][0]["rate"] == 0.02
        assert "detection_rate" in data
        assert "table" or result.table()

    def test_campaign_validates_rates(self):
        with pytest.raises(ConfigurationError):
            run_campaign(rates=())
