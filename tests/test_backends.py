"""Conformance tests for the DistanceBackend protocol implementations."""

import dataclasses

import numpy as np
import pytest

from repro import distances as sw
from repro.accelerator import DistanceAccelerator
from repro.accelerator.params import PAPER_PARAMS
from repro.analog import IDEAL
from repro.backends import (
    AcceleratorBackend,
    DistanceBackend,
    SoftwareBackend,
    resolve_backend,
)
from repro.errors import ConfigurationError, SequenceError
from repro.mining import (
    KnnClassifier,
    cluster_series,
    discover_motifs,
    leave_one_out_accuracy,
    pairwise_distances,
    streaming_subsequence_search,
    subsequence_search,
)
from repro.serving import AcceleratorPool, PoolBackend

FUNCTIONS = ["dtw", "lcs", "edit", "hausdorff", "hamming", "manhattan"]


def _kwargs(function):
    return (
        {"threshold": 0.5}
        if function in ("lcs", "edit", "hamming")
        else {}
    )


@pytest.fixture
def ideal_backend():
    return AcceleratorBackend(
        DistanceAccelerator(nonideality=IDEAL, quantise_io=False)
    )


class TestProtocol:
    def test_software_satisfies_protocol(self):
        assert isinstance(SoftwareBackend(), DistanceBackend)

    def test_accelerator_satisfies_protocol(self, ideal_backend):
        assert isinstance(ideal_backend, DistanceBackend)

    def test_pool_satisfies_protocol(self):
        from repro.serving import PoolBackend

        assert isinstance(PoolBackend(), DistanceBackend)

    def test_resolve_names(self):
        assert resolve_backend(None).name == "software"
        assert resolve_backend("software").name == "software"
        assert resolve_backend("accelerator").name == "accelerator"

    def test_resolve_passthrough(self):
        backend = SoftwareBackend()
        assert resolve_backend(backend) is backend

    def test_resolve_rejects_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend("fpga")

    def test_resolve_rejects_non_backend(self):
        with pytest.raises(ConfigurationError, match="DistanceBackend"):
            resolve_backend(42)


class TestConformance:
    """Software and (ideal) accelerator backends must agree."""

    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_compute_agrees(self, function, ideal_backend, rng):
        p, q = rng.normal(size=6), rng.normal(size=6)
        kwargs = _kwargs(function)
        hw = ideal_backend.compute(function, p, q, **kwargs)
        ref = SoftwareBackend().compute(function, p, q, **kwargs)
        assert hw == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("function", ["hamming", "manhattan", "dtw"])
    def test_batch_agrees(self, function, ideal_backend, rng):
        query = rng.normal(size=6)
        candidates = [rng.normal(size=6) for _ in range(4)]
        kwargs = _kwargs(function)
        hw = ideal_backend.batch(function, query, candidates, **kwargs)
        ref = SoftwareBackend().batch(
            function, query, candidates, **kwargs
        )
        np.testing.assert_allclose(hw, ref, atol=1e-8)

    def test_batch_returns_array(self, rng):
        out = SoftwareBackend().batch(
            "manhattan", rng.normal(size=5),
            [rng.normal(size=5) for _ in range(3)],
        )
        assert isinstance(out, np.ndarray)
        assert out.shape == (3,)

    @pytest.mark.parametrize("function", ["manhattan", "hausdorff"])
    def test_pairwise_agrees(self, function, ideal_backend, rng):
        series = [rng.normal(size=5) for _ in range(4)]
        hw = ideal_backend.pairwise(function, series)
        ref = SoftwareBackend().pairwise(function, series)
        np.testing.assert_allclose(hw, ref, atol=1e-8)
        assert hw.shape == (4, 4)
        np.testing.assert_allclose(hw, hw.T)

    def test_weighted_compute_agrees(self, ideal_backend, rng):
        p, q = rng.normal(size=6), rng.normal(size=6)
        w = rng.uniform(0.5, 1.5, 6)
        hw = ideal_backend.compute("manhattan", p, q, weights=w)
        assert hw == pytest.approx(
            sw.manhattan(p, q, weights=w), abs=1e-8
        )


BACKENDS = {
    "software": SoftwareBackend,
    "accelerator": AcceleratorBackend,
    "pool": PoolBackend,
}


class TestBatchEdgeInputs:
    """Every backend answers the same edge inputs the same way."""

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_scalar_query_is_a_sequence_error(self, name):
        backend = BACKENDS[name]()
        with pytest.raises(SequenceError):
            backend.batch("manhattan", 3.0, [np.ones(4)])

    @pytest.mark.parametrize("function", ["manhattan", "dtw"])
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_no_candidates_is_an_empty_array(self, name, function, rng):
        out = BACKENDS[name]().batch(function, rng.normal(size=6), [])
        assert isinstance(out, np.ndarray)
        assert out.shape == (0,)


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
        matrix = AcceleratorBackend(chip).pairwise(function, series)
        for i in range(len(series)):
            for j in range(i + 1, len(series)):
                value = chip.compute(function, series[i], series[j]).value
                assert matrix[i, j] == matrix[j, i] == value


class TestMiningWiring:
    def _toy_set(self, rng):
        x = [rng.normal(size=6) for _ in range(9)]
        y = [i % 3 for i in range(9)]
        return x, y

    def test_knn_backend_matches_callable_path(self, rng):
        x, y = self._toy_set(rng)
        queries = [rng.normal(size=6) for _ in range(4)]
        plain = KnnClassifier(distance="manhattan").fit(x, y)
        routed = KnnClassifier(
            distance="manhattan", backend="software"
        ).fit(x, y)
        np.testing.assert_array_equal(
            plain.predict(queries), routed.predict(queries)
        )

    def test_knn_accepts_backend_instance(self, ideal_backend, rng):
        x, y = self._toy_set(rng)
        clf = KnnClassifier(
            distance="manhattan", backend=ideal_backend
        ).fit(x, y)
        plain = KnnClassifier(distance="manhattan").fit(x, y)
        query = rng.normal(size=6)
        assert clf.predict_one(query) == plain.predict_one(query)

    def test_knn_backend_rejects_callable_distance(self, rng):
        with pytest.raises(ConfigurationError, match="registered"):
            KnnClassifier(
                distance=sw.manhattan, backend="software"
            )

    def test_leave_one_out_backend(self, rng):
        x, y = self._toy_set(rng)
        plain = leave_one_out_accuracy(x, y, distance="manhattan")
        routed = leave_one_out_accuracy(
            x, y, distance="manhattan", backend="software"
        )
        assert plain == routed

    def test_subsequence_backend_matches_default(self, rng):
        series = rng.normal(size=40)
        query = series[12:20]
        plain = subsequence_search(series, query, band=0.2)
        routed = subsequence_search(
            series, query, band=0.2, backend="software"
        )
        assert routed.best_index == plain.best_index
        assert routed.best_distance == pytest.approx(
            plain.best_distance
        )


def _ideal_chip():
    return DistanceAccelerator(nonideality=IDEAL, quantise_io=False)


#: Every engine a mining task can run on; the chips are ideal, so each
#: must reproduce the software answer.
ENGINES = {
    "software": SoftwareBackend,
    "accelerator": lambda: AcceleratorBackend(_ideal_chip()),
    "pool": lambda: PoolBackend(
        AcceleratorPool(n_shards=2, accelerator_factory=_ideal_chip)
    ),
}


def _assert_same_fields(result, reference):
    """Equal discrete fields, float fields within the ideal chip's
    solver tolerance."""
    for field in dataclasses.fields(reference):
        got = getattr(result, field.name)
        want = getattr(reference, field.name)
        if isinstance(want, float):
            assert got == pytest.approx(want, abs=1e-8), field.name
        else:
            np.testing.assert_array_equal(got, want, err_msg=field.name)


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestEveryEntryPointOnEveryEngine:
    """Each mining entry point reaches its engine only through the
    backend, and every engine returns the software answer."""

    @pytest.mark.parametrize("function", ["dtw", "lcs", "hamming", "manhattan"])
    def test_knn(self, engine, function, rng):
        x = [rng.normal(size=6) for _ in range(9)]
        y = [i % 3 for i in range(9)]
        queries = [rng.normal(size=6) for _ in range(3)]
        kwargs = _kwargs(function)
        clf = KnnClassifier(
            distance=function,
            k=3,
            distance_kwargs=kwargs,
            backend=ENGINES[engine](),
        ).fit(x, y)
        ref = KnnClassifier(
            distance=function, k=3, distance_kwargs=kwargs
        ).fit(x, y)
        for query in queries:
            np.testing.assert_allclose(
                clf._scores(query), ref._scores(query), atol=1e-8
            )
            np.testing.assert_array_equal(
                clf.kneighbors(query), ref.kneighbors(query)
            )
        assert leave_one_out_accuracy(
            x, y, distance=function, backend=ENGINES[engine](), **kwargs
        ) == leave_one_out_accuracy(x, y, distance=function, **kwargs)

    @pytest.mark.parametrize("function", ["manhattan", "lcs", "hausdorff"])
    def test_clustering(self, engine, function, rng):
        series = [rng.normal(size=6) for _ in range(3)]
        series += [rng.normal(3.0, 1.0, size=6) for _ in range(3)]
        kwargs = _kwargs(function)
        matrix = pairwise_distances(
            series, function, backend=ENGINES[engine](), **kwargs
        )
        np.testing.assert_allclose(
            matrix, pairwise_distances(series, function, **kwargs), atol=1e-8
        )
        _assert_same_fields(
            cluster_series(
                series, 2, function, backend=ENGINES[engine](), **kwargs
            ),
            cluster_series(series, 2, function, **kwargs),
        )

    def test_subsequence_search(self, engine, rng):
        series = np.cumsum(rng.normal(size=50))
        query = series[20:28] + rng.normal(0.0, 0.1, 8)
        _assert_same_fields(
            subsequence_search(
                series, query, band=0.2, backend=ENGINES[engine]()
            ),
            subsequence_search(series, query, band=0.2),
        )

    def test_streaming_subsequence_search(self, engine, rng):
        series = np.cumsum(rng.normal(size=50))
        query = series[20:28] + rng.normal(0.0, 0.1, 8)
        _assert_same_fields(
            streaming_subsequence_search(
                series, query, band=0.2, backend=ENGINES[engine]()
            ),
            streaming_subsequence_search(series, query, band=0.2),
        )

    @pytest.mark.parametrize("function", ["manhattan", "dtw"])
    def test_motifs(self, engine, function, rng):
        series = np.cumsum(rng.normal(size=24))
        motifs = discover_motifs(
            series, 5, k=2, distance=function, backend=ENGINES[engine]()
        )
        reference = discover_motifs(series, 5, k=2, distance=function)
        assert len(motifs) == len(reference) == 2
        for motif, want in zip(motifs, reference):
            _assert_same_fields(motif, want)
