"""End-to-end accelerator tests: hardware vs software references.

The ideal-chip accelerator must agree with the software distances to
numerical precision; the default (non-ideal) chip must agree within the
Fig. 5-scale error budgets.
"""

import numpy as np
import pytest

from repro import distances as sw
from repro.accelerator import DistanceAccelerator
from repro.backends import AcceleratorBackend
from repro.errors import LengthMismatchError

FUNCTIONS = ["dtw", "lcs", "edit", "hausdorff", "hamming", "manhattan"]


def _kwargs(function):
    return (
        {"threshold": 0.5}
        if function in ("lcs", "edit", "hamming")
        else {}
    )


def _software(function, p, q, **kw):
    return getattr(sw, function)(p, q, **kw)


class TestIdealChipExactness:
    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_matches_software_exactly(
        self, ideal_accelerator, rng, function
    ):
        for _ in range(3):
            p, q = rng.normal(size=10), rng.normal(size=10)
            kw = _kwargs(function)
            hw = ideal_accelerator.compute(function, p, q, **kw)
            assert hw.value == pytest.approx(
                _software(function, p, q, **kw), abs=1e-8
            )
            assert not hw.overflow
            assert hw.tiles == 1

    def test_dtw_with_band(self, ideal_accelerator, rng):
        p, q = rng.normal(size=12), rng.normal(size=12)
        hw = ideal_accelerator.compute("dtw", p, q, band=3)
        assert hw.value == pytest.approx(sw.dtw(p, q, band=3), abs=1e-8)

    def test_weighted_dtw(self, ideal_accelerator, rng):
        p, q = rng.normal(size=8), rng.normal(size=8)
        w = rng.uniform(0.5, 1.5, (8, 8))
        hw = ideal_accelerator.compute("dtw", p, q, weights=w)
        assert hw.value == pytest.approx(
            sw.dtw(p, q, weights=w), abs=1e-8
        )

    def test_weighted_manhattan(self, ideal_accelerator, rng):
        p, q = rng.normal(size=9), rng.normal(size=9)
        w = rng.uniform(0.5, 2.0, 9)
        hw = ideal_accelerator.compute("manhattan", p, q, weights=w)
        assert hw.value == pytest.approx(
            sw.manhattan(p, q, weights=w), abs=1e-8
        )

    def test_unequal_lengths_for_dp_functions(
        self, ideal_accelerator, rng
    ):
        p, q = rng.normal(size=7), rng.normal(size=11)
        for function in ("dtw", "lcs", "edit", "hausdorff"):
            kw = _kwargs(function)
            hw = ideal_accelerator.compute(function, p, q, **kw)
            assert hw.value == pytest.approx(
                _software(function, p, q, **kw), abs=1e-8
            )

    def test_edit_paper_errata_mode(self, ideal_accelerator, rng):
        p = rng.normal(size=6)
        hw = ideal_accelerator.compute(
            "edit", p, p, threshold=0.5, paper_errata=True
        )
        assert hw.value == pytest.approx(
            sw.edit(p, p, threshold=0.5, paper_errata=True), abs=1e-8
        )
        assert hw.value > 0.0  # the printed recurrence charges matches


class TestNonIdealChipAccuracy:
    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_error_within_budget(self, raw_accelerator, rng, function):
        errors = []
        for _ in range(4):
            p, q = rng.normal(size=12), rng.normal(size=12)
            kw = _kwargs(function)
            reference = _software(function, p, q, **kw)
            hw = raw_accelerator.compute(function, p, q, **kw)
            errors.append(
                abs(hw.value - reference) / max(abs(reference), 1e-9)
            )
        assert np.mean(errors) < 0.08  # Fig. 5-scale budget

    def test_row_functions_unaffected_by_quantisation_grid(
        self, accelerator, rng
    ):
        # Step-counting outputs land on exact Vstep multiples, so the
        # quantised chip decodes them exactly.
        p = rng.integers(0, 3, 10).astype(float)
        q = rng.integers(0, 3, 10).astype(float)
        hw = accelerator.compute("hamming", p, q, threshold=0.5)
        assert hw.value == pytest.approx(
            sw.hamming(p, q, threshold=0.5)
        )


class TestApiBehaviour:
    def test_row_function_rejects_unequal_lengths(self, accelerator):
        with pytest.raises(LengthMismatchError):
            accelerator.compute("manhattan", [1.0, 2.0], [1.0])

    def test_measure_time_populates_latency(self, raw_accelerator, rng):
        p, q = rng.normal(size=8), rng.normal(size=8)
        hw = raw_accelerator.compute("dtw", p, q, measure_time=True)
        assert hw.convergence_time_s is not None
        assert 1e-10 < hw.convergence_time_s < 1e-6
        assert hw.total_time_s > hw.convergence_time_s

    def test_no_measure_time_leaves_none(self, raw_accelerator, rng):
        p, q = rng.normal(size=8), rng.normal(size=8)
        hw = raw_accelerator.compute("dtw", p, q)
        assert hw.convergence_time_s is None
        assert hw.total_time_s is None

    def test_conversion_time_positive(self, accelerator, rng):
        p, q = rng.normal(size=8), rng.normal(size=8)
        hw = accelerator.compute("manhattan", p, q)
        assert hw.conversion_time_s > 0.0

    def test_backend_compute_matches_software(self, ideal_accelerator, rng):
        backend = AcceleratorBackend(ideal_accelerator)
        p, q = rng.normal(size=6), rng.normal(size=6)
        assert backend.compute("manhattan", p, q) == pytest.approx(
            sw.manhattan(p, q), abs=1e-8
        )

    def test_backend_compute_forwards_kwargs(self, ideal_accelerator, rng):
        backend = AcceleratorBackend(ideal_accelerator)
        p, q = rng.normal(size=6), rng.normal(size=6)
        assert backend.compute(
            "hamming", p, q, threshold=0.5
        ) == pytest.approx(sw.hamming(p, q, threshold=0.5), abs=1e-8)

    def test_overflow_flagged_for_rail_scale_outputs(
        self, ideal_accelerator
    ):
        # A huge Manhattan distance drives the output near the ADC
        # full scale; the accelerator must flag it.
        p = np.full(20, 10.0)
        q = np.full(20, -10.0)
        hw = ideal_accelerator.compute("manhattan", p, q)
        # 400 units * 20 mV = 8 V >> full scale.
        assert hw.overflow

    def test_chip_instances_reproducible(self, rng):
        p, q = rng.normal(size=10), rng.normal(size=10)
        a = DistanceAccelerator().compute("dtw", p, q).value
        b = DistanceAccelerator().compute("dtw", p, q).value
        assert a == b
