"""Shared fixtures for the test suite."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

import repro.accelerator.array as array_module
from repro.accelerator import (
    AcceleratorParameters,
    DistanceAccelerator,
)
from repro.analog import IDEAL, NonidealityModel
from repro.analog._native import numpy_reference


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--numpy-kernel",
        action="store_true",
        help="solve every level program on the NumPy reference program "
        "instead of the native kernel (to check that both give the "
        "recorded bits)",
    )


@pytest.fixture(autouse=True, scope="session")
def level_program_kernel(request):
    """Runs the whole session on the NumPy reference program when
    ``--numpy-kernel`` is given."""
    if request.config.getoption("--numpy-kernel"):
        with numpy_reference():
            yield
    else:
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def empty_structure_store(monkeypatch) -> "OrderedDict":
    """An empty process-wide graph-structure store for one test (the
    suite's own store comes back afterwards): builds counted per chip
    then see no structure an earlier test left behind."""
    store: "OrderedDict" = OrderedDict()
    monkeypatch.setattr(array_module, "_STRUCTURES", store)
    return store


@pytest.fixture
def accelerator() -> DistanceAccelerator:
    """Default-chip accelerator (nonideal, quantising converters)."""
    return DistanceAccelerator()

@pytest.fixture
def raw_accelerator() -> DistanceAccelerator:
    """Nonideal analog, but no converter quantisation (Fig. 5 setting)."""
    return DistanceAccelerator(quantise_io=False)


@pytest.fixture
def ideal_accelerator() -> DistanceAccelerator:
    """Mathematically exact accelerator — must match software exactly."""
    return DistanceAccelerator(nonideality=IDEAL, quantise_io=False)


@pytest.fixture
def tiny_array_accelerator() -> DistanceAccelerator:
    """A 4x4-PE accelerator to force tiling on short sequences."""
    params = AcceleratorParameters(array_rows=4, array_cols=4)
    return DistanceAccelerator(
        params=params, nonideality=IDEAL, quantise_io=False
    )


@pytest.fixture
def pair(rng):
    """A generic pair of z-normal-ish sequences of length 12."""
    return rng.normal(size=12), rng.normal(size=12)
