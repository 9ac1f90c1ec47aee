"""Tests for repro.distances.dtw (Eq. 2 of the paper)."""

import numpy as np
import pytest

from repro.distances import dtw, dtw_matrix, dtw_path, dtw_vectorised
from repro.errors import SequenceError
from repro.validation import as_weight_matrix, resolve_band


class TestDtwBasics:
    def test_identical_sequences_zero(self):
        assert dtw([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_single_elements(self):
        assert dtw([1.0], [4.0]) == pytest.approx(3.0)

    def test_known_small_example(self):
        # Hand-computed: P=[0,1], Q=[0,0,1].
        # D11=0, D12=0, D13=1; D21=1, D22=1, D23=0.
        assert dtw([0.0, 1.0], [0.0, 0.0, 1.0]) == pytest.approx(0.0)

    def test_constant_offset(self):
        # Constant sequences: every cell costs |a-b|; path length is
        # max(n, m) cells at minimum.
        assert dtw([1.0] * 3, [2.0] * 3) == pytest.approx(3.0)

    def test_symmetry_unconstrained(self):
        rng = np.random.default_rng(0)
        p, q = rng.normal(size=9), rng.normal(size=9)
        assert dtw(p, q) == pytest.approx(dtw(q, p))

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            p, q = rng.normal(size=7), rng.normal(size=8)
            assert dtw(p, q) >= 0.0

    def test_warping_beats_lockstep(self):
        # A shifted pattern should align nearly perfectly under DTW
        # while Manhattan (lockstep) cannot.
        p = np.array([0.0, 0.0, 1.0, 2.0, 1.0, 0.0])
        q = np.array([0.0, 1.0, 2.0, 1.0, 0.0, 0.0])
        from repro.distances import manhattan

        assert dtw(p, q) < manhattan(p, q)

    def test_rejects_empty(self):
        with pytest.raises(SequenceError):
            dtw([], [1.0])


class TestDtwMatrix:
    def test_boundary_conditions(self):
        d = dtw_matrix([1.0, 2.0], [1.0, 2.0])
        assert d[0, 0] == 0.0
        assert np.all(np.isinf(d[0, 1:]))
        assert np.all(np.isinf(d[1:, 0]))

    def test_monotone_along_diagonal(self):
        rng = np.random.default_rng(2)
        p, q = rng.normal(size=6), rng.normal(size=6)
        d = dtw_matrix(p, q)
        diag = np.diag(d)[1:]
        assert np.all(np.diff(diag) >= -1e-12)

    def test_final_cell_is_distance(self):
        p, q = [0.0, 1.0, 0.0], [0.0, 2.0, 0.0]
        assert dtw_matrix(p, q)[-1, -1] == dtw(p, q)


class TestWeightedDtw:
    def test_unit_weights_match_unweighted(self):
        rng = np.random.default_rng(3)
        p, q = rng.normal(size=5), rng.normal(size=5)
        w = np.ones((5, 5))
        assert dtw(p, q, weights=w) == pytest.approx(dtw(p, q))

    def test_doubled_weights_double_distance(self):
        rng = np.random.default_rng(4)
        p, q = rng.normal(size=5), rng.normal(size=5)
        assert dtw(p, q, weights=2.0) == pytest.approx(2.0 * dtw(p, q))

    def test_zero_weights_zero_distance(self):
        rng = np.random.default_rng(5)
        p, q = rng.normal(size=4), rng.normal(size=4)
        assert dtw(p, q, weights=0.0) == 0.0


class TestSakoeChibaBand:
    def test_band_never_decreases_distance(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            p, q = rng.normal(size=10), rng.normal(size=10)
            unconstrained = dtw(p, q)
            for radius in (1, 2, 4):
                assert dtw(p, q, band=radius) >= unconstrained - 1e-12

    def test_wide_band_equals_unconstrained(self):
        rng = np.random.default_rng(7)
        p, q = rng.normal(size=8), rng.normal(size=8)
        assert dtw(p, q, band=8) == pytest.approx(dtw(p, q))

    def test_band_radius_zero_is_lockstep(self):
        from repro.distances import manhattan

        rng = np.random.default_rng(8)
        p, q = rng.normal(size=6), rng.normal(size=6)
        assert dtw(p, q, band=0) == pytest.approx(manhattan(p, q))

    def test_fractional_band(self):
        rng = np.random.default_rng(9)
        p, q = rng.normal(size=40), rng.normal(size=40)
        # 5% of 40 = radius 2.
        assert dtw(p, q, band=0.05) == pytest.approx(dtw(p, q, band=2))


class TestDtwPath:
    def test_path_endpoints(self):
        rng = np.random.default_rng(10)
        p, q = rng.normal(size=6), rng.normal(size=7)
        _, path = dtw_path(p, q)
        assert path[0] == (0, 0)
        assert path[-1] == (5, 6)

    def test_path_steps_are_valid(self):
        rng = np.random.default_rng(11)
        p, q = rng.normal(size=7), rng.normal(size=5)
        _, path = dtw_path(p, q)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(0, 1), (1, 0), (1, 1)}

    def test_path_cost_sums_to_distance(self):
        rng = np.random.default_rng(12)
        p, q = rng.normal(size=6), rng.normal(size=6)
        distance, path = dtw_path(p, q)
        cost = sum(abs(p[i] - q[j]) for i, j in path)
        assert cost == pytest.approx(distance)

    @pytest.mark.parametrize("band", [None, 0, 0.1, 0.5, 1])
    def test_infeasible_band_gives_empty_path(self, band):
        # Narrow bands on unequal lengths admit no alignment: the path
        # must then be empty, never a walk off the cost matrix.
        rng = np.random.default_rng(15)
        for n in range(1, 7):
            for m in range(1, 7):
                p, q = rng.normal(size=n), rng.normal(size=m)
                distance, path = dtw_path(p, q, band=band)
                assert distance == dtw(p, q, band=band)
                if path == []:
                    assert distance == np.inf
                    continue
                assert path[0] == (0, 0)
                assert path[-1] == (n - 1, m - 1)
                assert min(min(step) for step in path) >= 0
                for (i0, j0), (i1, j1) in zip(path, path[1:]):
                    assert (i1 - i0, j1 - j0) in {(0, 1), (1, 0), (1, 1)}


class TestVectorised:
    def test_matches_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            p, q = rng.normal(size=9), rng.normal(size=11)
            assert dtw_vectorised(p, q) == pytest.approx(dtw(p, q))

    def test_matches_reference_with_band(self):
        rng = np.random.default_rng(14)
        p, q = rng.normal(size=12), rng.normal(size=12)
        assert dtw_vectorised(p, q, band=3) == pytest.approx(
            dtw(p, q, band=3)
        )


def reference_dtw_matrix(p, q, weights=None, band=None):
    """The recurrence cell by cell over a float64 array (the original
    NumPy loop), kept as the bit-for-bit reference."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n, m = p.shape[0], q.shape[0]
    w = as_weight_matrix(weights, n, m)
    r = resolve_band(band, n, m)
    d = np.full((n + 1, m + 1), np.inf, dtype=np.float64)
    d[0, 0] = 0.0
    cost = w * np.abs(p[:, None] - q[None, :])
    for i in range(1, n + 1):
        centre = i * m / n
        lo = max(1, int(np.floor(centre - r)))
        hi = min(m, int(np.ceil(centre + r)))
        for j in range(lo, hi + 1):
            best = min(d[i, j - 1], d[i - 1, j], d[i - 1, j - 1])
            if best == np.inf:
                continue
            d[i, j] = cost[i - 1, j - 1] + best
    return d


class TestDtwBits:
    """The Python-float recurrence keeps every cell's bits."""

    def assert_same_bits(self, p, q, weights=None, band=None):
        expected = reference_dtw_matrix(p, q, weights=weights, band=band)
        got = dtw_matrix(p, q, weights=weights, band=band)
        assert got.dtype == np.float64
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        distance = dtw(p, q, weights=weights, band=band)
        assert type(distance) is float
        assert np.float64(distance).tobytes() == expected[-1, -1].tobytes()

    def test_random_weighted_banded_unequal(self):
        rng = np.random.default_rng(15)
        bands = (None, 0, 1, 3, 0.05, 0.1, 0.5, 1.0)
        for _ in range(400):
            n, m = (int(k) for k in rng.integers(1, 25, size=2))
            p = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3])
            q = rng.normal(size=m)
            weights = (None, 2.5, rng.random((n, m)))[int(rng.integers(3))]
            band = bands[int(rng.integers(len(bands)))]
            self.assert_same_bits(p, q, weights=weights, band=band)

    def test_zero_weights_and_ties(self):
        p = np.array([1.0, 1.0, 2.0, 2.0])
        q = np.array([1.0, 2.0, 2.0])
        self.assert_same_bits(p, q, weights=0.0)
        self.assert_same_bits(p, q, weights=-0.0)
        self.assert_same_bits(p, p)

    def test_band_with_no_path_is_all_inf(self):
        # Radius 0 with n=2, m=5 leaves no feasible cell past (0, 0).
        p, q = [0.0, 1.0], [0.0, 1.0, 2.0, 3.0, 4.0]
        self.assert_same_bits(p, q, band=0)
        d = dtw_matrix(p, q, band=0)
        assert np.isinf(d[1:, 1:]).all()
        assert dtw(p, q, band=0) == np.inf
