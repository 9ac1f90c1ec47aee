"""Tests for the control/configuration module's job scheduler."""

import dataclasses

import numpy as np
import pytest

from repro.accelerator import (
    AcceleratorController,
    DistanceAccelerator,
    Job,
    ReconfigurationCost,
)
from repro.accelerator.params import PAPER_PARAMS
from repro.analog import IDEAL
from repro.backends import AcceleratorBackend
from repro.errors import ConfigurationError
from repro.faults import DriftFault, FaultInjector


@pytest.fixture
def controller():
    return AcceleratorController(
        DistanceAccelerator(nonideality=IDEAL, quantise_io=False)
    )


def mixed_jobs(rng, lengths=(8, 8, 8, 8, 8)):
    functions = ["dtw", "manhattan", "dtw", "hamming", "manhattan"]
    jobs = []
    for function, n in zip(functions, lengths):
        kwargs = {"threshold": 0.5} if function == "hamming" else {}
        jobs.append(
            Job(function, rng.normal(size=n), rng.normal(size=n), **kwargs)
        )
    return jobs


class TestReconfigurationCost:
    def test_tg_only_switch_is_fast(self):
        cost = ReconfigurationCost()
        assert cost.switch_time(0) == pytest.approx(10e-9)

    def test_weighted_switch_dominated_by_writes(self):
        cost = ReconfigurationCost()
        t = cost.switch_time(weighted_pes=100)
        assert t == pytest.approx(10e-9 + 100 * 3 * 1e-6)

    def test_negative_pes_rejected(self):
        with pytest.raises(ConfigurationError):
            ReconfigurationCost().switch_time(-1)


class TestScheduling:
    def test_grouping_minimises_reconfigurations(self, controller, rng):
        jobs = mixed_jobs(rng)
        report = controller.run(jobs, reorder=True)
        # dtw, manhattan, hamming -> 3 configuration loads.
        assert report.reconfigurations == 3

    def test_fifo_order_costs_more_switches(self, rng):
        ctl = AcceleratorController(
            DistanceAccelerator(nonideality=IDEAL, quantise_io=False)
        )
        jobs = mixed_jobs(rng)
        report = ctl.run(jobs, reorder=False)
        assert report.reconfigurations == 5
        assert report.order == list(range(5))

    def test_results_stay_in_submission_order(self, controller, rng):
        jobs = mixed_jobs(rng)
        report = controller.run(jobs)
        from repro import distances as sw

        for job, result in zip(jobs, report.results):
            expected = getattr(sw, job.function)(
                job.p, job.q, **job.kwargs
            )
            assert result.value == pytest.approx(expected, abs=1e-8)
            assert result.function == job.function

    def test_latency_cache_reused(self, controller, rng):
        jobs = [
            Job("dtw", rng.normal(size=8), rng.normal(size=8))
            for _ in range(4)
        ]
        controller.run(jobs)
        assert len(controller._latency_cache) == 1

    def test_sticky_configuration_across_runs(self, controller, rng):
        jobs = [Job("dtw", rng.normal(size=6), rng.normal(size=6))]
        first = controller.run(jobs)
        second = controller.run(jobs)
        assert first.reconfigurations == 1
        assert second.reconfigurations == 0

    def test_empty_jobs_rejected(self, controller):
        with pytest.raises(ConfigurationError):
            controller.run([])

    def test_total_time_composition(self, controller, rng):
        report = controller.run(mixed_jobs(rng))
        assert report.total_time_s == pytest.approx(
            report.reconfiguration_time_s + report.compute_time_s
        )
        assert report.compute_time_s > 0


class TestPairwiseBatch:
    def test_matrix_matches_software(self, controller, rng):
        from repro.distances import manhattan

        series = [rng.normal(size=6) for _ in range(4)]
        matrix, _ = controller.pairwise("manhattan", series)
        assert matrix[1, 2] == pytest.approx(
            manhattan(series[1], series[2]), abs=1e-8
        )
        assert np.allclose(matrix, matrix.T)

    def test_row_structure_batches_across_array_rows(self, rng):
        ctl = AcceleratorController(
            DistanceAccelerator(nonideality=IDEAL, quantise_io=False)
        )
        series = [rng.normal(size=6) for _ in range(5)]  # 10 pairs
        _, t_row = ctl.pairwise("manhattan", series)
        _, t_matrix = ctl.pairwise("dtw", series)
        # 10 pairs fit one row-structure pass (128 rows) but need 10
        # sequential matrix passes.
        assert t_row < t_matrix


def _count_probes(monkeypatch, chip):
    """Record the ``measure_time`` probes the controller sends."""
    probes = []
    original = chip.compute

    def compute(*args, **kwargs):
        if kwargs.get("measure_time"):
            probes.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(chip, "compute", compute)
    return probes


class TestLatencyMemo:
    """The latency memo keys on everything that shapes the graph."""

    def test_band_jobs_book_their_own_latency(self, rng):
        p, q = rng.normal(size=16), rng.normal(size=16)
        jobs = [Job("dtw", p, q), Job("dtw", p, q, band=0.1)]
        both = AcceleratorController().run(jobs).compute_time_s
        alone = [
            AcceleratorController().run([job]).compute_time_s
            for job in jobs
        ]
        assert alone[0] != alone[1]
        assert both == pytest.approx(sum(alone), rel=1e-12, abs=0.0)

    def test_weights_and_threshold_split_the_memo(
        self, controller, monkeypatch, rng
    ):
        probes = _count_probes(monkeypatch, controller.accelerator)
        p, q = rng.normal(size=6), rng.normal(size=6)
        controller.run(
            [
                Job("hamming", p, q),
                Job("hamming", p, q, threshold=0.5),
                Job("hamming", p, q, weights=np.full(6, 0.5)),
                Job("hamming", p, q, weights=[0.5] * 6),
            ]
        )
        assert len(probes) == 3

    def test_fault_epoch_retires_the_memo(self, monkeypatch, rng):
        chip = DistanceAccelerator()
        controller = AcceleratorController(chip)
        probes = _count_probes(monkeypatch, chip)
        job = Job("dtw", rng.normal(size=8), rng.normal(size=8))
        controller.run([job])
        controller.run([job])
        assert len(probes) == 1
        FaultInjector([DriftFault(rate=1.0, age_s=3.0e7)], seed=1).inject(
            chip
        )
        controller.run([job])
        assert len(probes) == 2


#: A 12x12 chip: rows longer than 12 do not fit one batch settle.
SMALL = dataclasses.replace(PAPER_PARAMS, array_rows=12, array_cols=12)


class TestManyPairPaths:
    """1-vs-many and pairwise rows equal a per-pair ``compute``."""

    @pytest.mark.parametrize(
        "function, n", [("dtw", 8), ("edit", 8), ("manhattan", 16)]
    )
    def test_backend_batch_rows_equal_compute(self, function, n, rng):
        chip = DistanceAccelerator(params=SMALL)
        query = rng.integers(0, 4, size=n).astype(float)
        candidates = [
            rng.integers(0, 4, size=n).astype(float) for _ in range(5)
        ]
        values = AcceleratorBackend(chip).batch(function, query, candidates)
        reference = [
            chip.compute(function, query, c).value for c in candidates
        ]
        assert values.tolist() == reference

    def test_backend_batch_checks_usable_cols(self, monkeypatch, rng):
        """A row narrower than the nominal array but wider than the
        chip's usable columns cannot take one batch settle."""
        chip = DistanceAccelerator(params=SMALL)
        monkeypatch.setattr(
            DistanceAccelerator, "usable_cols", property(lambda self: 8)
        )
        query = rng.normal(size=10)
        candidates = [rng.normal(size=10) for _ in range(3)]
        values = AcceleratorBackend(chip).batch(
            "manhattan", query, candidates
        )
        reference = [
            chip.compute("manhattan", query, c).value for c in candidates
        ]
        assert values.tolist() == reference
        assert chip.compute("manhattan", query, candidates[0]).tiles == 2

    @pytest.mark.parametrize(
        "function, lengths",
        [
            ("dtw", (6, 6, 6, 6)),
            ("lcs", (6, 7, 6, 5)),
            ("manhattan", (14,) * 4),
        ],
    )
    def test_pairwise_rows_equal_compute(self, function, lengths, rng):
        chip = DistanceAccelerator(params=SMALL)
        series = [rng.integers(0, 4, size=n).astype(float) for n in lengths]
        matrix, modelled = AcceleratorController(chip).pairwise(
            function, series
        )
        for i in range(len(series)):
            for j in range(i + 1, len(series)):
                value = chip.compute(function, series[i], series[j]).value
                assert matrix[i, j] == matrix[j, i] == value
        assert modelled > 0
