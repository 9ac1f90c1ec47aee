"""Tests for subsequence search (the >99% motivation) and motifs."""

import numpy as np
import pytest

from repro.backends import SoftwareBackend
from repro.errors import SequenceError
from repro.mining import (
    discover_motifs,
    sliding_windows,
    subsequence_search,
)


def series_with_planted_query(rng, n=200, m=24):
    """A noise series with the query planted at a known offset."""
    series = rng.normal(0, 1.0, n)
    query = np.sin(np.linspace(0, 4 * np.pi, m)) * 2.0
    offset = (n - m) * 3 // 5
    series[offset : offset + m] = query + rng.normal(0, 0.05, m)
    return series, query, offset


class TestSlidingWindows:
    def test_count_and_content(self):
        w = sliding_windows([1.0, 2.0, 3.0, 4.0], 2)
        assert w.shape == (3, 2)
        np.testing.assert_array_equal(w[0], [1.0, 2.0])
        np.testing.assert_array_equal(w[2], [3.0, 4.0])

    def test_full_length_window(self):
        w = sliding_windows([1.0, 2.0], 2)
        assert w.shape == (1, 2)

    def test_invalid_window_rejected(self):
        with pytest.raises(SequenceError):
            sliding_windows([1.0, 2.0], 3)
        with pytest.raises(SequenceError):
            sliding_windows([1.0, 2.0], 0)


class TestSubsequenceSearch:
    def test_finds_planted_match(self, rng):
        series, query, offset = series_with_planted_query(rng)
        result = subsequence_search(series, query, band=3)
        assert abs(result.best_index - offset) <= 1

    def test_lower_bounds_do_not_change_answer(self, rng):
        series, query, _ = series_with_planted_query(rng, n=120)
        pruned = subsequence_search(series, query, band=3)
        exact = subsequence_search(
            series, query, band=3, use_lower_bounds=False
        )
        assert pruned.best_index == exact.best_index
        assert pruned.best_distance == pytest.approx(
            exact.best_distance
        )

    def test_pruning_actually_prunes(self, rng):
        series, query, _ = series_with_planted_query(rng)
        result = subsequence_search(series, query, band=3)
        assert result.lb_kim_pruned + result.lb_keogh_pruned > 0
        assert result.dtw_calls < result.candidates
        assert 0.0 < result.pruning_rate <= 1.0

    def test_instrumentation_accounts_for_all_candidates(self, rng):
        series, query, _ = series_with_planted_query(rng, n=100)
        r = subsequence_search(series, query, band=3)
        assert (
            r.lb_kim_pruned + r.lb_keogh_pruned + r.dtw_calls
            == r.candidates
        )

    def test_custom_dtw_backend(self, rng):
        # A counting backend stands in for the accelerator backend.
        series, query, offset = series_with_planted_query(rng, n=100)
        calls = []

        class CountingSoftware(SoftwareBackend):
            def compute(self, function, p, q, **kwargs):
                calls.append(1)
                return super().compute(function, p, q, **kwargs)

        result = subsequence_search(
            series, query, band=3, backend=CountingSoftware()
        )
        assert len(calls) == result.dtw_calls
        assert abs(result.best_index - offset) <= 1


class TestMotifs:
    def test_finds_planted_motif(self, rng):
        n, m = 150, 16
        series = rng.normal(0, 1.0, n)
        pattern = np.sin(np.linspace(0, 2 * np.pi, m)) * 3.0
        series[10 : 10 + m] = pattern
        series[100 : 100 + m] = pattern + rng.normal(0, 0.02, m)
        motifs = discover_motifs(series, window=m, k=1)
        found = {motifs[0].first, motifs[0].second}
        assert any(abs(f - 10) <= 1 for f in found)
        assert any(abs(f - 100) <= 1 for f in found)

    def test_exclusion_zone_respected(self, rng):
        series = rng.normal(0, 1.0, 80)
        motifs = discover_motifs(series, window=10, k=1)
        assert motifs[0].second - motifs[0].first >= 5

    def test_top_k_non_overlapping(self, rng):
        series = rng.normal(0, 1.0, 120)
        motifs = discover_motifs(series, window=10, k=3)
        starts = [m.first for m in motifs] + [m.second for m in motifs]
        assert len(motifs) <= 3
        for i, a in enumerate(starts):
            for b in starts[i + 1 :]:
                assert abs(a - b) >= 5

    def test_distances_sorted(self, rng):
        series = rng.normal(0, 1.0, 100)
        motifs = discover_motifs(series, window=8, k=3)
        ds = [m.distance for m in motifs]
        assert ds == sorted(ds)

    def test_bad_k_rejected(self, rng):
        with pytest.raises(SequenceError):
            discover_motifs(rng.normal(size=50), window=8, k=0)

    def test_similarity_ranks_largest_first(self, rng):
        # LCS is a similarity: the planted pair has the most matches.
        n, m = 80, 12
        series = rng.normal(0, 1.0, n)
        pattern = np.sin(np.linspace(0, 2 * np.pi, m)) * 3.0
        series[5 : 5 + m] = pattern
        series[50 : 50 + m] = pattern + rng.normal(0, 0.02, m)
        motifs = discover_motifs(
            series, window=m, k=2, distance="lcs", threshold=0.1
        )
        assert abs(motifs[0].first - 5) <= 1
        assert abs(motifs[0].second - 50) <= 1
        assert motifs[0].distance >= motifs[1].distance
