"""Tests for k-NN classification, including the accelerator backend."""

import numpy as np
import pytest

from repro.datasets import formalise, load_dataset
from repro.errors import ConfigurationError, DatasetError
from repro.mining import KnnClassifier, leave_one_out_accuracy


def small_problem(rng, n_per_class=4, length=16):
    """Two well-separated synthetic classes."""
    base0 = np.sin(np.linspace(0, 2 * np.pi, length))
    base1 = np.sign(np.sin(np.linspace(0, 4 * np.pi, length)))
    x, y = [], []
    for _ in range(n_per_class):
        x.append(base0 + rng.normal(0, 0.1, length))
        y.append(0)
        x.append(base1 + rng.normal(0, 0.1, length))
        y.append(1)
    return x, np.array(y)


class TestKnnClassifier:
    def test_separable_problem_perfect(self, rng):
        x, y = small_problem(rng)
        clf = KnnClassifier(distance="dtw").fit(x, y)
        queries, labels = small_problem(
            np.random.default_rng(99)
        )
        assert clf.score(queries, labels) == 1.0

    def test_lcs_similarity_handled(self, rng):
        # LCS is a similarity: the classifier must invert its sign.
        x, y = small_problem(rng)
        clf = KnnClassifier(
            distance="lcs", distance_kwargs={"threshold": 0.3}
        ).fit(x, y)
        assert clf._similarity
        queries, labels = small_problem(np.random.default_rng(5))
        assert clf.score(queries, labels) >= 0.75

    def test_k3_majority(self, rng):
        x, y = small_problem(rng, n_per_class=5)
        clf = KnnClassifier(distance="manhattan", k=3).fit(x, y)
        prediction = clf.predict_one(x[0])
        assert prediction == y[0]

    def test_kneighbors_returns_k_indices(self, rng):
        x, y = small_problem(rng)
        clf = KnnClassifier(distance="manhattan", k=3).fit(x, y)
        idx = clf.kneighbors(x[0])
        assert idx.shape == (3,)
        assert idx[0] == 0  # itself is nearest

    def test_euclidean_distance(self, rng):
        x, y = small_problem(rng)
        clf = KnnClassifier(distance="euclidean").fit(x, y)
        assert clf.predict_one(x[1]) == y[1]

    def test_accelerator_backend_drop_in(self, rng):
        from repro.accelerator import DistanceAccelerator
        from repro.analog import IDEAL
        from repro.backends import AcceleratorBackend

        acc = DistanceAccelerator(
            nonideality=IDEAL, quantise_io=False
        )
        x, y = small_problem(rng, n_per_class=3, length=10)
        hw_clf = KnnClassifier(
            distance="manhattan", backend=AcceleratorBackend(acc)
        ).fit(x, y)
        sw_clf = KnnClassifier(distance="manhattan").fit(x, y)
        queries, _ = small_problem(np.random.default_rng(2), 2, 10)
        np.testing.assert_array_equal(
            hw_clf.predict(queries), sw_clf.predict(queries)
        )

    def test_unfitted_raises(self):
        clf = KnnClassifier()
        with pytest.raises(DatasetError):
            clf.predict_one([1.0, 2.0])

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigurationError):
            KnnClassifier(k=0)

    def test_mismatched_fit_rejected(self):
        with pytest.raises(DatasetError):
            KnnClassifier().fit([[1.0, 2.0]], [0, 1])


class TestLeaveOneOut:
    def test_perfect_on_separable(self, rng):
        x, y = small_problem(rng, n_per_class=4)
        assert leave_one_out_accuracy(x, y, distance="dtw") == 1.0

    def test_on_synthetic_ucr_dataset(self):
        # Subsampled Symbols at length 24 should classify far above
        # chance with 1-NN DTW.
        data = load_dataset("Symbols")
        x = [formalise(s, 24) for s in data.train_x[:18]]
        y = data.train_y[:18]
        accuracy = leave_one_out_accuracy(x, y, distance="dtw")
        assert accuracy > 1.0 / 6.0 + 0.2
