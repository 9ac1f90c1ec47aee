"""The columnar UCR cascade equals the per-window one, bit for bit.

``subsequence_search`` z-normalises every window and computes LB_Kim
and LB_Keogh for all of them in one NumPy pass.  The reference below
is the per-window loop it replaced, over the 1-D formulas it used:
every window normalised on its own, then LB_Kim, then LB_Keogh, then
one ``compute`` per survivor.  Both must give the same
``SearchResult`` and send the backend the same candidate bytes in the
same order.
"""

import numpy as np
import pytest

from repro.backends import SoftwareBackend
from repro.datasets import z_normalise
from repro.distances import keogh_envelope, lb_keogh, lb_kim
from repro.mining import SearchResult, sliding_windows, subsequence_search

BANDS = (None, 0, 2, 0.1, 0.3)


def reference_z_normalise(series):
    arr = np.asarray(series, dtype=np.float64)
    std = float(np.std(arr))
    if std < 1.0e-12:
        return arr - float(np.mean(arr))
    return (arr - float(np.mean(arr))) / std


def reference_lb_kim(p, q):
    first = abs(p[0] - q[0])
    last = abs(p[-1] - q[-1])
    max_term = abs(np.max(p) - np.max(q))
    min_term = abs(np.min(p) - np.min(q))
    if p.shape[0] == 1 and q.shape[0] == 1:
        return float(first)
    return float(max(first + last, max_term, min_term))


def reference_lb_keogh(p, envelope):
    upper, lower = envelope
    above = np.clip(p - upper, 0.0, None)
    below = np.clip(lower - p, 0.0, None)
    return float(np.sum(above + below))


def reference_search(
    series, query, band, use_lower_bounds, normalise, backend
):
    """The per-window cascade, one window at a time."""
    query_arr = np.asarray(query, dtype=np.float64)
    if normalise:
        query_arr = reference_z_normalise(query_arr)
    windows = sliding_windows(series, query_arr.shape[0])
    envelope = keogh_envelope(query_arr, band=band)
    best_distance = np.inf
    best_index = -1
    kim_pruned = keogh_pruned = dtw_calls = 0
    for index in range(windows.shape[0]):
        candidate = windows[index]
        if normalise:
            candidate = reference_z_normalise(candidate)
        if use_lower_bounds:
            if reference_lb_kim(candidate, query_arr) >= best_distance:
                kim_pruned += 1
                continue
            if reference_lb_keogh(candidate, envelope) >= best_distance:
                keogh_pruned += 1
                continue
        distance = backend.compute("dtw", candidate, query_arr, band=band)
        dtw_calls += 1
        if distance < best_distance:
            best_distance = distance
            best_index = index
    return SearchResult(
        best_index=best_index,
        best_distance=float(best_distance),
        candidates=windows.shape[0],
        lb_kim_pruned=kim_pruned,
        lb_keogh_pruned=keogh_pruned,
        dtw_calls=dtw_calls,
    )


class RecordingSoftware(SoftwareBackend):
    """Software DTW that records every call's arguments as bytes."""

    def __init__(self):
        self.calls = []

    def compute(self, function, p, q, **kwargs):
        self.calls.append(
            (
                function,
                np.asarray(p).tobytes(),
                np.asarray(q).tobytes(),
                sorted(kwargs.items()),
            )
        )
        return super().compute(function, p, q, **kwargs)


def random_series(rng, length):
    """A random walk with flat stretches (constant windows) mixed in."""
    series = np.cumsum(rng.normal(size=length)) * rng.choice([1e-3, 1.0, 50.0])
    for _ in range(int(rng.integers(0, 3))):
        start = int(rng.integers(0, length))
        stop = int(rng.integers(start, length + 1))
        series[start:stop] = rng.normal()
    return series


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def cases(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        window = int(rng.integers(1, 41))
        series = random_series(rng, window + int(rng.integers(0, 40)))
        yield rng, series, window, BANDS[int(rng.integers(0, len(BANDS)))]


class TestStackedRowsEqualOneDCalls:
    def test_z_normalise_rows(self):
        for _, series, window, _ in cases(150, seed=1):
            windows = sliding_windows(series, window)
            stacked = z_normalise(np.ascontiguousarray(windows))
            for row, candidate in zip(stacked, windows):
                expected = bits(reference_z_normalise(candidate))
                assert bits(row) == expected
                assert bits(z_normalise(candidate)) == expected

    def test_bound_rows(self):
        for rng, series, window, band in cases(150, seed=2):
            stacked = z_normalise(
                np.ascontiguousarray(sliding_windows(series, window))
            )
            query = z_normalise(random_series(rng, window))
            envelope = keogh_envelope(query, band=band)
            kim = lb_kim(stacked, query)
            keogh = lb_keogh(stacked, query, envelope=envelope)
            assert kim.shape == keogh.shape == (stacked.shape[0],)
            for row, kim_row, keogh_row in zip(stacked, kim, keogh):
                expected_kim = reference_lb_kim(row, query)
                expected_keogh = reference_lb_keogh(row, envelope)
                assert bits(kim_row) == bits(expected_kim)
                assert bits(keogh_row) == bits(expected_keogh)
                one_kim = lb_kim(row, query)
                one_keogh = lb_keogh(row, query, band=band)
                assert type(one_kim) is float and type(one_keogh) is float
                assert bits(one_kim) == bits(expected_kim)
                assert bits(one_keogh) == bits(expected_keogh)

    def test_flat_rows_are_only_centred(self):
        stacked = z_normalise([[2.0, 2.0, 2.0], [1.0, 2.0, 3.0]])
        assert bits(stacked[0]) == bits([0.0, 0.0, 0.0])
        assert bits(stacked[1]) == bits(reference_z_normalise([1.0, 2.0, 3.0]))

    def test_length_one_stack_keeps_first_only_bound(self):
        stacked = np.array([[3.0], [-1.0]])
        assert lb_kim(stacked, [1.0]).tolist() == [2.0, 2.0]


class TestColumnarSearchEqualsPerWindow:
    @pytest.mark.parametrize("normalise", [True, False])
    @pytest.mark.parametrize("use_lower_bounds", [True, False])
    def test_results_and_backend_calls(self, normalise, use_lower_bounds):
        seed = 10 + 2 * normalise + use_lower_bounds
        for rng, series, window, band in cases(40, seed=seed):
            query = random_series(rng, window)
            expected_backend = RecordingSoftware()
            expected = reference_search(
                series,
                query,
                band,
                use_lower_bounds,
                normalise,
                expected_backend,
            )
            backend = RecordingSoftware()
            result = subsequence_search(
                series,
                query,
                band=band,
                use_lower_bounds=use_lower_bounds,
                normalise=normalise,
                backend=backend,
            )
            assert result == expected
            assert bits(result.best_distance) == bits(expected.best_distance)
            assert backend.calls == expected_backend.calls

    def test_bound_equal_to_best_is_pruned(self, rng):
        # With radius 0 on a short query, LB_Keogh sums the same terms
        # as DTW, so a window repeating the best one ties it exactly.
        base = rng.normal(size=10)
        series = np.tile(base, 3)
        query = base[2:7] + rng.normal(0.0, 0.3, 5)
        expected_backend = RecordingSoftware()
        expected = reference_search(
            series, query, 0, True, True, expected_backend
        )
        backend = RecordingSoftware()
        result = subsequence_search(series, query, band=0, backend=backend)
        assert result == expected
        assert backend.calls == expected_backend.calls

    def test_query_of_series_length_has_one_window(self, rng):
        series = rng.normal(size=12)
        result = subsequence_search(series, series + 0.1, band=2)
        assert result.candidates == 1
        assert result.best_index == 0
        assert result.dtw_calls == 1
