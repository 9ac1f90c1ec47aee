"""Tests for the DTW lower bounds (Rakthanmanon et al. [24])."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distances import (
    cascading_lower_bound,
    dtw,
    keogh_envelope,
    lb_keogh,
    lb_kim,
)

short_series = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    min_size=2,
    max_size=12,
)


class TestLbKim:
    def test_zero_for_identical(self):
        assert lb_kim([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_single_elements(self):
        assert lb_kim([1.0], [4.0]) == pytest.approx(3.0)

    @given(p=short_series, q=short_series)
    @settings(max_examples=60, deadline=None)
    def test_lower_bounds_dtw(self, p, q):
        assert lb_kim(p, q) <= dtw(p, q) + 1e-9


class TestKeoghEnvelope:
    def test_envelope_contains_series(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=20)
        upper, lower = keogh_envelope(q, band=3)
        assert np.all(upper >= q)
        assert np.all(lower <= q)

    def test_wider_band_widens_envelope(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=15)
        u1, l1 = keogh_envelope(q, band=1)
        u3, l3 = keogh_envelope(q, band=3)
        assert np.all(u3 >= u1)
        assert np.all(l3 <= l1)

    def test_full_band_is_global_extrema(self):
        q = np.array([1.0, 5.0, -2.0, 3.0])
        upper, lower = keogh_envelope(q, band=None)
        assert np.all(upper == 5.0)
        assert np.all(lower == -2.0)


def _envelope_loop(q, r):
    """The per-window reference: 2 NumPy reductions per element."""
    n = q.shape[0]
    upper, lower = np.empty(n), np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - r), min(n, i + r + 1)
        upper[i] = np.max(q[lo:hi])
        lower[i] = np.min(q[lo:hi])
    return upper, lower


class TestKeoghEnvelopeBits:
    """The one-pass envelope against the per-window loop, bit for bit
    (``float.hex`` tells ``+0.0`` from ``-0.0``)."""

    @staticmethod
    def _assert_same_bits(q, band, r):
        got = keogh_envelope(q, band=band)
        want = _envelope_loop(np.asarray(q, dtype=np.float64), r)
        for g, w in zip(got, want):
            assert [v.hex() for v in g.tolist()] == [
                v.hex() for v in w.tolist()
            ]

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    @pytest.mark.parametrize("radius", [0, 1, 3, 40])
    def test_random_series(self, n, radius):
        rng = np.random.default_rng([n, radius])
        q = rng.normal(size=n)
        self._assert_same_bits(q, radius, min(radius, n))

    @pytest.mark.parametrize("radius", [0, 1, 2, 7])
    def test_signed_zero_ties(self, radius):
        rng = np.random.default_rng(radius)
        for _ in range(20):
            # Only zeros and negatives: every window's max is a zero,
            # often a tie of +0.0 and -0.0 (and symmetrically for min).
            q = rng.choice([0.0, -0.0, -1.0], size=12)
            self._assert_same_bits(q, radius, radius)
            self._assert_same_bits(-q, radius, radius)

    def test_full_band_and_length_one(self):
        q = np.array([0.0, -0.0, -3.0, 2.0, -0.0])
        self._assert_same_bits(q, None, q.shape[0])
        self._assert_same_bits(np.array([-0.0]), None, 1)
        self._assert_same_bits(np.array([7.5]), 0, 0)


class TestLbKeogh:
    def test_zero_inside_envelope(self):
        q = np.array([0.0, 1.0, 0.0, -1.0, 0.0])
        assert lb_keogh(q, q, band=2) == 0.0

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_lower_bounds_banded_dtw(self, data):
        n = data.draw(st.integers(min_value=3, max_value=10))
        floats = st.floats(
            min_value=-5.0, max_value=5.0, allow_nan=False
        )
        p = data.draw(
            st.lists(floats, min_size=n, max_size=n)
        )
        q = data.draw(
            st.lists(floats, min_size=n, max_size=n)
        )
        band = data.draw(st.integers(min_value=1, max_value=n))
        assert lb_keogh(p, q, band=band) <= dtw(p, q, band=band) + 1e-9

    def test_precomputed_envelope_matches(self):
        rng = np.random.default_rng(2)
        p, q = rng.normal(size=10), rng.normal(size=10)
        env = keogh_envelope(q, band=2)
        assert lb_keogh(p, q, envelope=env) == pytest.approx(
            lb_keogh(p, q, band=2)
        )


class TestCascade:
    def test_cascade_at_least_each_component(self):
        rng = np.random.default_rng(3)
        p, q = rng.normal(size=12), rng.normal(size=12)
        c = cascading_lower_bound(p, q, band=3)
        assert c >= lb_kim(p, q) - 1e-12
        assert c >= lb_keogh(p, q, band=3) - 1e-12

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cascade_lower_bounds_dtw(self, data):
        n = data.draw(st.integers(min_value=3, max_value=8))
        floats = st.floats(
            min_value=-4.0, max_value=4.0, allow_nan=False
        )
        p = data.draw(st.lists(floats, min_size=n, max_size=n))
        q = data.draw(st.lists(floats, min_size=n, max_size=n))
        band = data.draw(st.integers(min_value=1, max_value=n))
        assert cascading_lower_bound(p, q, band=band) <= dtw(
            p, q, band=band
        ) + 1e-9
