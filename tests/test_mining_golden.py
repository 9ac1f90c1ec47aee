"""Characterization test: the mining entry points pinned to a fixture.

Seeded inputs drive the five mining entry points — k-NN
classification (scores, neighbours, predictions, leave-one-out),
pairwise clustering matrices and k-medoids results, subsequence
search, streaming subsequence search and motif discovery — on the
software path, and on a default (nonideal, quantising) chip the
subsequence searches, the motifs and the DTW/LCS/Hausdorff k-NN
scores and clustering matrices.  Every result field is recorded
bit-exactly (``float.hex``) and must match ``mining_golden.json``.

Regenerate the fixture (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_mining_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.accelerator import DistanceAccelerator
from repro.backends import AcceleratorBackend
from repro.mining import (
    KnnClassifier,
    cluster_series,
    discover_motifs,
    leave_one_out_accuracy,
    pairwise_distances,
    streaming_subsequence_search,
    subsequence_search,
)

FIXTURE = pathlib.Path(__file__).with_name("mining_golden.json")
SEED = 2021
FUNCTIONS = ("dtw", "lcs", "edit", "hausdorff", "hamming", "manhattan")
CHIP_FUNCTIONS = ("dtw", "lcs", "hausdorff")


def _kwargs(function):
    if function in ("lcs", "edit", "hamming"):
        return {"threshold": 0.5}
    if function == "dtw":
        return {"band": 0.25}
    return {}


def _encode(value):
    """Every field of a result, floats as ``float.hex``."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, np.ndarray):
        return [_encode(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value).hex()


def _labelled(rng, n_per_class=3, length=8):
    x, y = [], []
    for label in range(3):
        base = np.sin(np.linspace(0, (label + 1) * np.pi, length))
        for _ in range(n_per_class):
            x.append(base + rng.normal(0.0, 0.3, length))
            y.append(label)
    return x, np.array(y)


def _series(rng, length=60, query_length=10):
    series = np.cumsum(rng.normal(size=length))
    query = series[25 : 25 + query_length] + rng.normal(
        0.0, 0.1, query_length
    )
    return series, query


# -- the calls that pick an engine -----------------------------------------


def _backend(chip):
    return None if chip is None else AcceleratorBackend(chip)


def _knn(function, chip=None, k=1):
    return KnnClassifier(
        distance=function,
        k=k,
        distance_kwargs=_kwargs(function),
        backend=_backend(chip),
    )


def _pairwise(series, function, chip=None):
    return pairwise_distances(
        series, function, backend=_backend(chip), **_kwargs(function)
    )


def _cluster(series, function, chip=None):
    return cluster_series(
        series,
        2,
        function,
        seed=3,
        backend=_backend(chip),
        **_kwargs(function),
    )


def _search(series, query, chip=None, **kwargs):
    return subsequence_search(series, query, backend=_backend(chip), **kwargs)


def _stream(series, query, chip=None, **kwargs):
    return streaming_subsequence_search(
        series, query, backend=_backend(chip), **kwargs
    )


def _motifs(series, window, function, chip=None, **kwargs):
    kwargs.update(_kwargs(function))
    return discover_motifs(
        series, window, distance=function, backend=_backend(chip), **kwargs
    )


# -- the sweep ---------------------------------------------------------------


def _knn_record(function, chip=None):
    rng = np.random.default_rng([SEED, FUNCTIONS.index(function)])
    x, y = _labelled(rng)
    queries = [x[i] + rng.normal(0.0, 0.2, x[i].shape) for i in (0, 4, 8)]
    record = {}
    for k in (1, 3):
        clf = _knn(function, chip, k=k).fit(x, y)
        record[f"k{k}"] = {
            "scores": [_encode(clf._scores(q)) for q in queries],
            "kneighbors": [_encode(clf.kneighbors(q)) for q in queries],
            "predict": _encode(clf.predict(queries)),
            "score": _encode(clf.score(queries, [0, 1, 2])),
        }
    if chip is None:
        record["leave_one_out"] = _encode(
            leave_one_out_accuracy(x, y, distance=function, **_kwargs(function))
        )
    return record


def _clustering_record(function, chip=None):
    rng = np.random.default_rng([SEED, 10 + FUNCTIONS.index(function)])
    series, _ = _labelled(rng, n_per_class=3, length=7)
    series = series[:7]
    return {
        "matrix": _encode(_pairwise(series, function, chip)),
        "clusters": _encode(_cluster(series, function, chip)),
    }


SEARCH_VARIANTS = {
    "default": {},
    "band-none": {"band": None},
    "no-bounds": {"use_lower_bounds": False, "band": 0.1},
    "raw": {"normalise": False, "band": 0.2},
}
STREAM_VARIANTS = {
    "default": {},
    "band-none": {"band": None},
    "no-kim": {"use_lb_kim": False, "band": 0.1},
}
MOTIF_VARIANTS = {
    "manhattan": ("manhattan", {}),
    "manhattan-k3-raw": ("manhattan", {"k": 3, "normalise": False}),
    "dtw-exclusion": ("dtw", {"k": 2, "exclusion": 3}),
    "hausdorff": ("hausdorff", {"k": 2}),
}


def _search_record(variant, chip=None):
    rng = np.random.default_rng([SEED, 20])
    series, query = _series(rng)
    return _encode(_search(series, query, chip, **SEARCH_VARIANTS[variant]))


def _stream_record(variant, chip=None):
    rng = np.random.default_rng([SEED, 21])
    series, query = _series(rng)
    return _encode(_stream(series, query, chip, **STREAM_VARIANTS[variant]))


def _motif_record(variant, chip=None):
    rng = np.random.default_rng([SEED, 22])
    series = np.cumsum(rng.normal(size=26))
    function, kwargs = MOTIF_VARIANTS[variant]
    return _encode(_motifs(series, 6, function, chip, **dict(kwargs)))


def _cases():
    """``label -> (record function, args, on_chip)`` of the sweep."""
    cases = {}
    for function in FUNCTIONS:
        cases[f"software/knn/{function}"] = (_knn_record, function, False)
        cases[f"software/clustering/{function}"] = (
            _clustering_record,
            function,
            False,
        )
    for function in CHIP_FUNCTIONS:
        cases[f"chip/knn/{function}"] = (_knn_record, function, True)
        cases[f"chip/clustering/{function}"] = (
            _clustering_record,
            function,
            True,
        )
    for where, on_chip in (("software", False), ("chip", True)):
        for variant in SEARCH_VARIANTS:
            cases[f"{where}/subsequence/{variant}"] = (
                _search_record,
                variant,
                on_chip,
            )
        for variant in STREAM_VARIANTS:
            cases[f"{where}/streaming/{variant}"] = (
                _stream_record,
                variant,
                on_chip,
            )
        for variant in MOTIF_VARIANTS:
            cases[f"{where}/motifs/{variant}"] = (
                _motif_record,
                variant,
                on_chip,
            )
    return cases


CASES = _cases()


def _run(label):
    record, arg, on_chip = CASES[label]
    # A fresh default chip per case: each graph seeds its own error
    # draws, so a case's bits do not depend on the ones before it.
    return record(arg, DistanceAccelerator() if on_chip else None)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("label", list(CASES))
def test_mining_result_matches_fixture(label, golden):
    assert _run(label) == golden[label]


def test_fixture_covers_the_sweep(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({label: _run(label) for label in CASES}, indent=1)
        + "\n"
    )
    print(f"wrote {len(CASES)} cases to {FIXTURE}")
