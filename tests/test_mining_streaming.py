"""Tests for the streaming (UCR-suite) subsequence search."""

import numpy as np
import pytest

from repro.errors import SequenceError
from repro.mining import (
    RunningWindowStats,
    lb_keogh_early_abandon,
    streaming_subsequence_search,
    subsequence_search,
)
from repro.distances import keogh_envelope


class TestRunningWindowStats:
    def test_matches_numpy_per_window(self, rng):
        series = rng.normal(size=60)
        window = 12
        stats = RunningWindowStats(series, window)
        for index in (0, 17, 48):
            chunk = series[index : index + window]
            assert stats.means[index] == pytest.approx(
                np.mean(chunk), abs=1e-10
            )
            assert stats.stds[index] == pytest.approx(
                np.std(chunk), abs=1e-8
            )

    def test_normalise_matches_z_norm(self, rng):
        from repro.datasets import z_normalise

        series = rng.normal(size=40)
        stats = RunningWindowStats(series, 10)
        window = series[5:15]
        np.testing.assert_allclose(
            stats.normalise(window, 5), z_normalise(window), atol=1e-8
        )

    def test_constant_window_handled(self):
        series = np.concatenate([np.full(10, 3.0), [1.0, 2.0]])
        stats = RunningWindowStats(series, 10)
        out = stats.normalise(series[:10], 0)
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_bad_window_rejected(self, rng):
        with pytest.raises(SequenceError):
            RunningWindowStats(rng.normal(size=5), 6)


class TestEarlyAbandon:
    def test_full_sum_matches_lb_keogh(self, rng):
        from repro.distances import lb_keogh

        p = rng.normal(size=15)
        q = rng.normal(size=15)
        upper, lower = keogh_envelope(q, band=3)
        bound, abandoned = lb_keogh_early_abandon(
            p, upper, lower, best_so_far=np.inf
        )
        assert not abandoned
        assert bound == pytest.approx(
            lb_keogh(p, q, band=3), abs=1e-10
        )

    def test_abandons_when_hopeless(self, rng):
        q = np.zeros(10)
        p = np.full(10, 100.0)
        upper, lower = keogh_envelope(q, band=2)
        partial, abandoned = lb_keogh_early_abandon(
            p, upper, lower, best_so_far=1.0
        )
        assert abandoned
        assert partial >= 1.0


class TestStreamingSearch:
    def _planted(self, rng, n=160, m=20):
        series = rng.normal(0, 1.0, n)
        query = np.sin(np.linspace(0, 3 * np.pi, m)) * 2.0
        offset = (n - m) * 3 // 5
        series[offset : offset + m] = query + rng.normal(0, 0.05, m)
        return series, query, offset

    def test_finds_planted_match(self, rng):
        series, query, offset = self._planted(rng)
        result = streaming_subsequence_search(series, query, band=3)
        assert abs(result.best_index - offset) <= 1

    def test_agrees_with_batch_search(self, rng):
        series, query, _ = self._planted(rng, n=120)
        streaming = streaming_subsequence_search(
            series, query, band=3
        )
        batch = subsequence_search(series, query, band=3)
        assert streaming.best_index == batch.best_index
        assert streaming.best_distance == pytest.approx(
            batch.best_distance, abs=1e-8
        )

    def test_instrumentation_accounts_everything(self, rng):
        series, query, _ = self._planted(rng)
        r = streaming_subsequence_search(series, query, band=3)
        assert (
            r.lb_kim_pruned
            + r.lb_keogh_pruned
            + r.lb_keogh_abandoned
            + r.dtw_calls
            == r.candidates
        )

    def test_early_abandoning_fires(self, rng):
        # Disable LB_Kim so candidates reach the Keogh stage; plant
        # the match early so a tight best-so-far exists for the scan.
        series, query, _ = self._planted(rng)
        series = np.concatenate([series[90:115], series])
        r = streaming_subsequence_search(
            series, query, band=3, use_lb_kim=False
        )
        assert r.lb_keogh_abandoned > 0
        assert r.lb_kim_pruned == 0

    def test_query_longer_than_series_rejected(self, rng):
        with pytest.raises(SequenceError):
            streaming_subsequence_search(
                rng.normal(size=5), rng.normal(size=10)
            )

    def test_accelerator_backend(self, rng):
        from repro.accelerator import DistanceAccelerator
        from repro.analog import IDEAL
        from repro.backends import AcceleratorBackend

        chip = DistanceAccelerator(
            nonideality=IDEAL, quantise_io=False
        )
        series, query, offset = self._planted(rng, n=80, m=12)
        result = streaming_subsequence_search(
            series, query, band=3, backend=AcceleratorBackend(chip)
        )
        assert abs(result.best_index - offset) <= 1
