"""Tests for batch row-structure execution and rail saturation."""

import numpy as np
import pytest

from repro import distances as sw
from repro.accelerator import AcceleratorParameters, DistanceAccelerator
from repro.analog import IDEAL, NonidealityModel, BlockGraph, dc_solve
from repro.errors import ConfigurationError, LengthMismatchError


@pytest.fixture
def chip():
    return DistanceAccelerator(nonideality=IDEAL, quantise_io=False)


class TestRowBatch:
    def test_values_match_individual_computes(self, chip, rng):
        q = rng.normal(size=8)
        cands = [rng.normal(size=8) for _ in range(5)]
        batch = chip.batch("manhattan", q, cands)
        for value, cand in zip(batch.values, cands):
            assert value == pytest.approx(
                sw.manhattan(q, cand), abs=1e-8
            )

    def test_hamming_batch_with_threshold(self, chip, rng):
        q = rng.integers(0, 2, 10).astype(float)
        cands = [rng.integers(0, 2, 10).astype(float) for _ in range(4)]
        batch = chip.batch("hamming", q, cands, threshold=0.5)
        for value, cand in zip(batch.values, cands):
            assert value == pytest.approx(
                sw.hamming(q, cand, threshold=0.5), abs=1e-8
            )

    def test_single_pass_under_array_rows(self, chip, rng):
        q = rng.normal(size=6)
        batch = chip.batch("manhattan", q, [q, q, q])
        assert batch.passes == 1

    def test_pass_count_grows_past_array_rows(self, rng):
        params = AcceleratorParameters(array_rows=2, array_cols=16)
        small = DistanceAccelerator(
            params=params, nonideality=IDEAL, quantise_io=False
        )
        q = rng.normal(size=6)
        batch = small.batch("manhattan", q, [q] * 5)
        assert batch.passes == 3

    def test_one_settle_serves_all_candidates(self, chip, rng):
        q = rng.normal(size=8)
        cands = [rng.normal(size=8) for _ in range(6)]
        batch = chip.batch("manhattan", q, cands, measure_time=True)
        assert batch.convergence_time_s is not None
        assert batch.total_time_s > batch.convergence_time_s

    def test_matrix_function_rejected(self, chip, rng):
        with pytest.raises(ConfigurationError, match="row structure"):
            chip.batch("dtw", rng.normal(size=4), [rng.normal(size=4)])

    def test_length_mismatch_rejected(self, chip, rng):
        with pytest.raises(LengthMismatchError):
            chip.batch(
                "manhattan", rng.normal(size=4), [rng.normal(size=5)]
            )

    def test_too_long_for_one_row_rejected(self, rng):
        params = AcceleratorParameters(array_rows=4, array_cols=4)
        small = DistanceAccelerator(
            params=params, nonideality=IDEAL, quantise_io=False
        )
        q = rng.normal(size=6)
        with pytest.raises(ConfigurationError, match="fit one array"):
            small.batch("manhattan", q, [q])

    def test_empty_candidates_rejected(self, chip, rng):
        with pytest.raises(ConfigurationError):
            chip.batch("manhattan", rng.normal(size=4), [])

    def test_nearest_candidate(self, chip, rng):
        q = rng.normal(size=10)
        cands = [
            q + rng.normal(0, s, 10) for s in (1.2, 0.05, 0.6)
        ]
        assert chip.nearest("manhattan", q, cands) == 1

    def test_weighted_batch(self, chip, rng):
        q = rng.normal(size=6)
        cand = rng.normal(size=6)
        w = rng.uniform(0.5, 1.5, 6)
        batch = chip.batch("manhattan", q, [cand], weights=w)
        assert batch.values[0] == pytest.approx(
            sw.manhattan(q, cand, weights=w), abs=1e-8
        )


class TestBatchMethods:
    """The promoted DistanceAccelerator.batch / .nearest API."""

    def test_batch_method_matches_individual_computes(self, chip, rng):
        q = rng.normal(size=8)
        cands = [rng.normal(size=8) for _ in range(5)]
        batch = chip.batch("manhattan", q, cands)
        for value, cand in zip(batch.values, cands):
            assert value == pytest.approx(
                sw.manhattan(q, cand), abs=1e-8
            )

    def test_nearest_method(self, chip, rng):
        q = rng.normal(size=10)
        cands = [q + rng.normal(0, s, 10) for s in (1.2, 0.05, 0.6)]
        assert chip.nearest("manhattan", q, cands) == 1

    def test_empty_candidates_ndarray_regression(self, chip, rng):
        """An empty ndarray must raise cleanly, not trip the ambiguous
        truth-value of ``if not candidates``."""
        with pytest.raises(ConfigurationError, match="no candidates"):
            chip.batch(
                "manhattan", rng.normal(size=4), np.empty((0, 4))
            )

    def test_ndarray_candidates_accepted(self, chip, rng):
        q = rng.normal(size=6)
        cands = rng.normal(size=(3, 6))
        batch = chip.batch("manhattan", q, cands)
        for value, cand in zip(batch.values, cands):
            assert value == pytest.approx(
                sw.manhattan(q, cand), abs=1e-8
            )

    def test_batch_pairs_mixed_lengths(self, chip, rng):
        pairs = [
            (rng.normal(size=4), rng.normal(size=4)),
            (rng.normal(size=9), rng.normal(size=9)),
        ]
        batch = chip.batch_pairs("manhattan", pairs)
        for value, (p, q) in zip(batch.values, pairs):
            assert value == pytest.approx(
                sw.manhattan(p, q), abs=1e-8
            )

    def test_batch_pairs_per_pair_weights(self, chip, rng):
        pairs = [
            (rng.normal(size=5), rng.normal(size=5)) for _ in range(3)
        ]
        weights = [rng.uniform(0.5, 1.5, 5) for _ in range(3)]
        batch = chip.batch_pairs("manhattan", pairs, weights=weights)
        for value, (p, q), w in zip(batch.values, pairs, weights):
            assert value == pytest.approx(
                sw.manhattan(p, q, weights=w), abs=1e-8
            )

    def test_shared_query_pairs_bill_like_batch(self, rng):
        # 32 pairs of n = 16 holding one query object: the DAC loads
        # the query once and each candidate once (528 samples, past the
        # 256 lanes), exactly what batch bills for the same inputs.
        chip = DistanceAccelerator()
        q = rng.normal(size=16)
        cands = [rng.normal(size=16) for _ in range(32)]
        pairs = chip.batch_pairs("manhattan", [(q, c) for c in cands])
        batch = chip.batch("manhattan", q, cands)
        assert pairs.conversion_time_s == batch.conversion_time_s
        assert pairs.conversion_time_s == (
            chip.dac.load_time(16 * 33) + chip.adc.read_time(32)
        )
        np.testing.assert_array_equal(pairs.values, batch.values)


class TestSupplyRailSaturation:
    def test_unbounded_by_default(self):
        g = BlockGraph(nonideality=IDEAL)
        a = g.const(3.0)
        s = g.lin([(a, 1.0)])
        assert dc_solve(g)[s] == pytest.approx(3.0)

    def test_clamps_at_rail(self):
        model = NonidealityModel(
            open_loop_gain=1e12,
            offset_sigma=0.0,
            diode_drop=0.0,
            comparator_offset_sigma=0.0,
            weight_tolerance=0.0,
            supply_rail=1.0,
        )
        g = BlockGraph(nonideality=model)
        a = g.const(0.8)
        b = g.const(0.7)
        s = g.lin([(a, 1.0), (b, 1.0)])  # ideal 1.5 V > rail
        assert dc_solve(g)[s] == pytest.approx(1.0)

    def test_negative_rail_clamps_too(self):
        model = NonidealityModel(supply_rail=1.0)
        g = BlockGraph(nonideality=model)
        a = g.const(0.9)
        s = g.lin([(a, -2.0)])
        assert dc_solve(g)[s] >= -1.0

    def test_saturated_dtw_flags_overflow(self, rng):
        # A chip with rails: absurdly large inputs saturate the DP and
        # the accelerator reports overflow rather than nonsense > Vcc.
        model = NonidealityModel(supply_rail=1.0)
        chip = DistanceAccelerator(
            nonideality=model, quantise_io=False
        )
        p = np.full(12, 20.0)
        q = np.full(12, -20.0)
        result = chip.compute("manhattan", p, q)
        assert result.overflow
        assert result.raw_voltage <= 1.0 + 1e-9

    def test_invalid_rail_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            NonidealityModel(supply_rail=0.0)
