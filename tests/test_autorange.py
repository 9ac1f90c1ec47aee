"""The auto-ranging DAC front end of untiled DTW and Hausdorff settles.

The benchmark's knn workload (``perfbench/workloads.py::Knn``) sends
0.5 x z-normalised series, which use about 5 of the DAC's 8 bits at
unit gain.  Two of its classifications picked a neighbour outside the
analog error budget: seed 32 operation 1141 (user 0) and seed 15
operation 5450 (user 1).  These tests replay them from the workload's
own random stream and hold the chip to the benchmark's neighbour rule,
then check the gain itself: a power of two in [1, 8], the largest that
keeps the inputs, the output bound and the DP edges inside range, with
an overflowed pair settled again at unit gain.
"""

from __future__ import annotations

import dataclasses
import importlib
import pathlib
import sys

import numpy as np
import pytest

from repro.accelerator import DistanceAccelerator, StackedPairs
from repro.accelerator.array import AUTORANGED, MAX_INPUT_GAIN_LOG2
from repro.accelerator.params import PAPER_PARAMS

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

#: ``(seed, operation, user)`` of each knn classification that failed
#: the neighbour check at unit gain.
KNN_FAILURES = ((32, 1141, 0), (15, 5450, 1))

GAINS = tuple(2.0**k for k in range(MAX_INPUT_GAIN_LOG2 + 1))

SMALL = dataclasses.replace(PAPER_PARAMS, array_rows=8, array_cols=8)


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def _replay(workloads, seed, operation):
    """The knn workload at ``seed`` and the queries of its operation
    ``operation``, drawn exactly as ``Knn._wave`` draws them."""
    knn = workloads.Knn(seed, tracer=None)
    rng = knn.rng
    for _ in range(operation + 1):
        rng.exponential(knn.GAP_S, size=knn.USERS)
        queries = [
            knn._instance(rng, int(rng.integers(knn.CLASSES)))
            for _ in range(knn.USERS)
        ]
    return knn, queries


def _served(knn, query):
    """The chip's results for one classification, as a pool drain
    settles them: one ``compute_many`` over the training set."""
    train = np.stack(knn.train)
    pairs = StackedPairs(np.repeat(query[None], len(train), axis=0), train)
    return DistanceAccelerator().compute_many("dtw", pairs)


def _range_conditions(chip, function, p, q, gain):
    """``(inputs, output bound, DP edges)`` in range at ``gain``."""
    resolution = chip.params.voltage_resolution
    dac, adc = chip.dac.spec, chip.adc.spec
    swing = max(np.abs(p).max(), np.abs(q).max()) * resolution * gain
    diagonal = np.abs(p - q)
    bound = diagonal.sum() if function == "dtw" else diagonal.max()
    edges = 0.0
    if function == "dtw":
        edges = max(np.abs(p - q[0]).sum(), np.abs(p[0] - q).sum())
    return (
        swing < dac.full_scale - dac.lsb,
        bound * resolution * gain < adc.full_scale - 2 * adc.lsb,
        edges * resolution * gain < chip.params.vcc,
    )


@pytest.mark.parametrize("seed, operation, user", KNN_FAILURES)
class TestKnnFailures:
    def test_neighbour_within_budget(self, workloads, seed, operation, user):
        knn, queries = _replay(workloads, seed, operation)
        query = queries[user]
        values = np.array([r.value for r in _served(knn, query)])
        refs = np.array(
            [workloads.reference("dtw", query, s) for s in knn.train]
        )
        for value, ref in zip(values, refs):
            assert workloads.within_budget("dtw", float(value), ref)
        best = float(refs.min())
        budget = (
            workloads.RELATIVE_TOLERANCE * max(best, 1.0)
            + workloads.QUANTISATION_SLACK
        )
        assert refs[int(np.argmin(values))] <= best + budget

    def test_gain_is_the_largest_in_range(
        self, workloads, seed, operation, user
    ):
        knn, queries = _replay(workloads, seed, operation)
        query = queries[user]
        chip = DistanceAccelerator()
        adc = chip.adc.spec
        for series, result in zip(knn.train, _served(knn, query)):
            assert result.gain in GAINS
            assert all(
                _range_conditions(chip, "dtw", query, series, result.gain)
            )
            assert result.gain == GAINS[-1] or not all(
                _range_conditions(chip, "dtw", query, series, 2 * result.gain)
            )
            # The bound kept the ADC unclipped and no node overflowed.
            assert not result.overflow
            assert result.adc_voltage < adc.full_scale - adc.lsb
        # The front end is what fixed these cases: most pairs use it.
        gains = [r.gain for r in _served(knn, query)]
        assert sum(g > 1 for g in gains) > len(gains) // 2


class TestGainRule:
    @pytest.mark.parametrize("function", sorted(AUTORANGED))
    def test_random_pairs(self, function):
        rng = np.random.default_rng(7)
        chip = DistanceAccelerator()
        for scale in (0.05, 0.2, 0.5, 1.0, 3.0):
            p = scale * rng.normal(size=(20, 10))
            q = scale * rng.normal(size=(20, 10))
            many = chip.compute_many(function, StackedPairs(p, q))
            for k, result in enumerate(many):
                single = chip.compute(function, p[k], q[k])
                assert single == result
                assert result.gain in GAINS
                # Unit gain is the floor, in range or not.
                assert result.gain == 1.0 or all(
                    _range_conditions(chip, function, p[k], q[k], result.gain)
                )
                assert result.gain == GAINS[-1] or not all(
                    _range_conditions(
                        chip, function, p[k], q[k], 2 * result.gain
                    )
                )

    def test_gain_divides_out(self, monkeypatch):
        """A pair settled at gain 8 reads the distance its scaled copy
        reads at gain 1, divided by 8 (gains are exact)."""
        chip = DistanceAccelerator()
        p = np.array([0.1, -0.2, 0.15, 0.0, 0.05, -0.1])
        q = np.array([0.0, -0.1, 0.2, 0.1, -0.05, -0.15])
        small = chip.compute("dtw", p, q)
        assert small.gain == 8.0
        _force_gain(monkeypatch, 1.0)
        large = chip.compute("dtw", 8 * p, 8 * q)
        assert small.value == large.value / 8
        assert small.raw_voltage == large.raw_voltage

    @pytest.mark.parametrize(
        "function, n, kwargs",
        [
            ("manhattan", 6, {}),
            ("hamming", 6, {"threshold": 0.5}),
            ("lcs", 6, {"threshold": 0.5}),
            ("edit", 6, {"threshold": 0.5}),
            # Tiled on the 8x8 chip below.
            ("dtw", 12, {}),
            ("hausdorff", 12, {}),
        ],
    )
    def test_other_settles_keep_unit_gain(self, function, n, kwargs):
        rng = np.random.default_rng(3)
        p, q = 0.1 * rng.normal(size=n), 0.1 * rng.normal(size=n)
        chip = DistanceAccelerator(params=SMALL)
        result = chip.compute(function, p, q, **kwargs)
        assert result.gain == 1.0

    def test_ideal_converters_keep_unit_gain(self):
        chip = DistanceAccelerator(quantise_io=False)
        p, q = np.full(6, 0.1), np.zeros(6)
        assert chip.compute("dtw", p, q).gain == 1.0


def _force_gain(monkeypatch, gain):
    """Make every auto-ranged settle use ``gain``."""

    def forced(self, config, p_arr, q_arr, w):
        return gain if p_arr.ndim == 1 else np.full(p_arr.shape[0], gain)

    monkeypatch.setattr(DistanceAccelerator, "_input_gain", forced)


class TestOverflowFallback:
    """A pair that overflows at a gain settles again at unit gain."""

    @staticmethod
    def _pairs(rows):
        # Unit gain keeps these in range (DTW 14.4 units, edges 0.3 V);
        # gain 8 drives the DP edges into the rail and clips the ADC.
        rng = np.random.default_rng(11)
        p = 0.6 + 0.01 * rng.normal(size=(rows, 12))
        q = -0.6 + 0.01 * rng.normal(size=(rows, 12))
        return p, q

    def test_single_and_stacked(self, monkeypatch):
        p, q = self._pairs(6)
        chip = DistanceAccelerator()
        _force_gain(monkeypatch, 1.0)
        unity = chip.compute_many("dtw", StackedPairs(p, q))
        assert not any(r.overflow for r in unity)
        _force_gain(monkeypatch, 8.0)
        many = chip.compute_many("dtw", StackedPairs(p, q))
        for k, result in enumerate(many):
            assert result == unity[k]
            assert chip.compute("dtw", p[k], q[k]) == unity[k]

    def test_measured_time_is_of_the_final_settle(self, monkeypatch):
        p, q = self._pairs(1)
        chip = DistanceAccelerator()
        _force_gain(monkeypatch, 1.0)
        unity = chip.compute("dtw", p[0], q[0], measure_time=True)
        _force_gain(monkeypatch, 8.0)
        assert chip.compute("dtw", p[0], q[0], measure_time=True) == unity
