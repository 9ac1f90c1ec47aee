"""End-to-end integration tests spanning the whole stack.

Dataset -> preprocessing -> mining task -> distance backend
(software vs accelerator) -> result agreement, plus the reconfiguration
story the paper leads with: one accelerator instance serving multiple
applications with different distance functions.
"""

import numpy as np
import pytest

from repro.accelerator import DistanceAccelerator
from repro.analog import IDEAL
from repro.backends import AcceleratorBackend, SoftwareBackend
from repro.datasets import formalise, load_dataset
from repro.distances import hamming
from repro.mining import (
    KnnClassifier,
    cluster_series,
    rand_index,
    subsequence_search,
)


@pytest.fixture(scope="module")
def chip():
    return DistanceAccelerator(nonideality=IDEAL, quantise_io=False)


class TestReconfigurability:
    def test_one_chip_serves_all_six_functions(self, chip):
        # The paper's data-center scenario: healthcare (HamD, LCS) and
        # smart-city (DTW) workloads sharing one accelerator.
        rng = np.random.default_rng(0)
        p, q = rng.normal(size=10), rng.normal(size=10)
        values = {}
        for function in (
            "dtw",
            "lcs",
            "edit",
            "hausdorff",
            "hamming",
            "manhattan",
        ):
            kw = (
                {"threshold": 0.5}
                if function in ("lcs", "edit", "hamming")
                else {}
            )
            values[function] = chip.compute(function, p, q, **kw).value
        assert len(values) == 6
        assert all(np.isfinite(v) for v in values.values())


class TestVehicleClassificationDtw:
    def test_accelerated_matches_software(self, chip):
        # Weng et al. [31]: vehicle classification with DTW 1-NN.
        data = load_dataset("Symbols")
        train_x = [formalise(s, 16) for s in data.train_x[:12]]
        train_y = data.train_y[:12]
        test_x = [formalise(s, 16) for s in data.test_x[:6]]

        sw_clf = KnnClassifier(distance="dtw").fit(train_x, train_y)
        hw_clf = KnnClassifier(
            distance="dtw", backend=AcceleratorBackend(chip)
        ).fit(train_x, train_y)
        np.testing.assert_array_equal(
            sw_clf.predict(test_x), hw_clf.predict(test_x)
        )


class TestIrisAuthenticationHamming:
    def test_accept_reject_decisions_agree(self, chip):
        # Vandal & Savvides [29]: iris template matching with HamD.
        rng = np.random.default_rng(1)
        template = rng.normal(size=14)
        genuine = template + rng.normal(0, 0.05, 14)
        impostor = rng.normal(size=14)
        threshold_units = 0.5
        accept_limit = 3.0

        for probe, expected in ((genuine, True), (impostor, False)):
            sw_d = hamming(template, probe, threshold=threshold_units)
            hw_d = chip.compute(
                "hamming", template, probe, threshold=threshold_units
            ).value
            assert (sw_d <= accept_limit) == expected
            assert (hw_d <= accept_limit) == expected


class TestClusteringAgreement:
    def test_hardware_clustering_matches_software(self, chip):
        rng = np.random.default_rng(2)
        series = [np.zeros(8) + rng.normal(0, 0.2, 8) for _ in range(4)]
        series += [
            np.full(8, 4.0) + rng.normal(0, 0.2, 8) for _ in range(4)
        ]
        sw_result = cluster_series(series, 2, distance="manhattan")
        hw_result = cluster_series(
            series, 2, distance="manhattan", backend=AcceleratorBackend(chip)
        )
        assert rand_index(sw_result.labels, hw_result.labels) == 1.0


class TestSubsequenceSearchWithAcceleratedDtw:
    def test_best_match_agrees(self, chip):
        rng = np.random.default_rng(3)
        series = rng.normal(0, 1, 60)
        query = np.sin(np.linspace(0, 2 * np.pi, 12)) * 2
        series[30:42] = query + rng.normal(0, 0.05, 12)

        sw_result = subsequence_search(series, query, band=3)
        hw_result = subsequence_search(
            series,
            query,
            band=3,
            backend=AcceleratorBackend(chip),
        )
        assert hw_result.best_index == sw_result.best_index


class TestProfileMotivation:
    def test_distance_calls_dominate_search(self):
        # The paper's Section 1 claim, reproduced in miniature: count
        # time spent in the distance function during a (non-pruned)
        # subsequence search.
        import time

        rng = np.random.default_rng(4)
        series = rng.normal(0, 1, 80)
        query = rng.normal(0, 1, 16)

        in_distance = [0.0]

        class TimedSoftware(SoftwareBackend):
            def compute(self, function, p, q, **kwargs):
                start = time.perf_counter()
                try:
                    return super().compute(function, p, q, **kwargs)
                finally:
                    in_distance[0] += time.perf_counter() - start

        start = time.perf_counter()
        subsequence_search(
            series,
            query,
            band=3,
            use_lower_bounds=False,
            backend=TimedSoftware(),
        )
        total = time.perf_counter() - start
        assert in_distance[0] / total > 0.5
