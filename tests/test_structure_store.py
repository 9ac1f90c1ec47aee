"""The process-wide graph-structure store.

A chip's healthy graph structure depends only on its frozen
``params``, ``nonideality`` and ``timing`` (each graph seeds its own
error draws from ``nonideality.seed``) and on the template key, so
:mod:`repro.accelerator.array` keeps one bounded LRU of them for the
whole process.  Chips of one design build each key once between them;
chips of different designs never share one; and a warm store serves
the same bits as an empty one.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

import numpy as np
import pytest

import repro.accelerator.array as array_module
from repro.accelerator import DistanceAccelerator
from repro.accelerator.params import PAPER_PARAMS
from repro.analog import DEFAULT_NONIDEALITY, DEFAULT_TIMING, BlockGraph
from repro.faults import DriftFault, FaultInjector, StuckAtFault, recalibrate
from repro.serving import AcceleratorPool, PoolConfig

PARAMS = dataclasses.replace(PAPER_PARAMS, array_rows=12, array_cols=12)
SCENARIO = (
    StuckAtFault(rate=0.05),
    DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003),
)


@pytest.fixture
def builds(monkeypatch, empty_structure_store) -> list:
    """Every graph frozen from here on (one per structure build)."""
    built: list = []
    original = BlockGraph.freeze

    def counting(graph):
        built.append(len(graph))
        return original(graph)

    monkeypatch.setattr(BlockGraph, "freeze", counting)
    return built


def _chip(**overrides) -> DistanceAccelerator:
    overrides.setdefault("params", PARAMS)
    return DistanceAccelerator(validate=False, **overrides)


def _serve(chip, rng_seed=0):
    """DTW and Manhattan singles, a DTW ``compute_many`` and a
    Manhattan row batch: four template keys."""
    rng = np.random.default_rng(rng_seed)
    p, q = rng.normal(size=(2, 8))
    stack = [tuple(rng.normal(size=(2, 8))) for _ in range(3)]
    return (
        chip.compute("dtw", p, q).value,
        chip.compute("manhattan", p, q).value,
        [r.value for r in chip.compute_many("dtw", stack)],
        chip.batch("manhattan", p, [q, p * 0.5]).values.tolist(),
    )


def test_identical_chips_build_each_key_once(builds, empty_structure_store):
    first = _serve(_chip())
    n_keys = len(empty_structure_store)
    assert len(builds) == n_keys > 0
    for seed in range(3):
        twin = _chip()
        _serve(twin, rng_seed=seed)
        assert twin.template_cache_info()["misses"] == n_keys
    assert len(builds) == n_keys
    assert len(empty_structure_store) == n_keys
    assert _serve(_chip()) == first


@pytest.mark.parametrize(
    "design",
    [
        {"nonideality": dataclasses.replace(DEFAULT_NONIDEALITY, seed=7)},
        {"params": dataclasses.replace(PARAMS, vcc=1.1)},
        {"timing": dataclasses.replace(DEFAULT_TIMING, r_network=40.0e3)},
    ],
    ids=["nonideality-seed", "params", "timing"],
)
def test_different_designs_never_share(builds, empty_structure_store, design):
    base = _chip()
    other = _chip(**design)
    _serve(base)
    n_keys = len(builds)
    _serve(other)
    assert len(builds) == 2 * n_keys
    designs = {key[:3] for key in empty_structure_store}
    assert designs == {
        (chip.params, chip.nonideality, chip.timing)
        for chip in (base, other)
    }
    structures = {id(s) for s in empty_structure_store.values()}
    assert len(structures) == 2 * n_keys


def test_store_stays_within_its_bound(
    monkeypatch, builds, empty_structure_store
):
    monkeypatch.setattr(array_module, "STRUCTURE_STORE_CAPACITY", 3)
    chip = _chip()
    rng = np.random.default_rng(5)
    got = []
    for n in range(4, 12):
        p, q = rng.normal(size=(2, n))
        got.append(chip.compute("dtw", p, q).value)
        assert len(empty_structure_store) <= 3
    assert len(builds) == 8
    fresh = _chip(use_template_cache=False)
    rng = np.random.default_rng(5)
    expected = []
    for n in range(4, 12):
        p, q = rng.normal(size=(2, n))
        expected.append(fresh.compute("dtw", p, q).value)
    assert got == expected


def _fault_cycle():
    """Serve, fault, recalibrate, serve: values of one chip."""
    chip = _chip()
    out = [_serve(chip)]
    FaultInjector(SCENARIO, seed=3).inject(chip)
    out.append(_serve(chip, rng_seed=1))
    recalibrate(chip)
    out.append(_serve(chip, rng_seed=2))
    chip.clear_faults()
    out.append(_serve(chip, rng_seed=3))
    return out


def test_warm_store_serves_the_bits_of_an_empty_one(
    monkeypatch, empty_structure_store
):
    for seed in range(4):  # structures other chips left behind
        _serve(_chip(), rng_seed=10 + seed)
    assert len(empty_structure_store) > 0
    warm = _fault_cycle()
    monkeypatch.setattr(array_module, "_STRUCTURES", OrderedDict())
    assert _fault_cycle() == warm


def test_replaced_shard_and_bist_twin_reuse_structures(builds):
    """The fault cycle's cold path: a factory-fresh shard and the BIST
    fault-free twin find every structure the pool's chips built."""
    pool = AcceleratorPool(
        n_shards=2,
        config=PoolConfig(cache_capacity=0),
        accelerator_factory=_chip,
    )
    pool.inject_faults(FaultInjector(SCENARIO, seed=4), indices=[0])
    pool.run_bist(now=0.0)
    n_built = len(builds)
    assert n_built > 0
    for index in range(2):
        pool.replace_shard(index)
    pool.inject_faults(FaultInjector(SCENARIO, seed=5), indices=[1])
    pool.run_bist(now=1.0)
    assert len(builds) == n_built
