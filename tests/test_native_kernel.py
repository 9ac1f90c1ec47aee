"""The native level-program kernel against the NumPy reference program.

The kernel (``repro/analog/_levelprog.c``) must settle every graph to
the same bits as ``_LevelProgram``'s NumPy run — signed zeros and NaNs
included — on every batch layout the engine uses.  These tests compare
the two through ``_native.numpy_reference``, the one seam that forces
the NumPy program, and pin the kernel's selection: reentrant under
threads, and a silent fallback to NumPy when it cannot be built.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro.analog._native as native_module
from repro.accelerator import AcceleratorParameters, DistanceAccelerator
from repro.accelerator.configurations import get_config
from repro.accelerator.pe import build_dtw_graph
from repro.analog import IDEAL, BlockGraph
from repro.analog.graph import KIND_MAX, KIND_MIN

from .test_engine_fastpath import _random_graph

#: Batch layouts of the source values: 1-D, and leading batch axes.
LAYOUTS = [(), (1,), (60,), (2, 3)]

#: Every segment length the kernel must reduce like ``reduceat``.
LENGTHS = range(1, 131)

ALL_FUNCTIONS = ("dtw", "lcs", "edit", "hausdorff", "hamming", "manhattan")


@pytest.fixture(scope="module", autouse=True)
def kernel():
    """The active native kernel; outside CI a host without one skips
    this module, inside CI its absence fails it."""
    active = native_module.active()
    if active is None:
        message = "native level-program kernel is not available"
        if os.environ.get("CI"):
            pytest.fail(message)
        pytest.skip(message)
    return active


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def _assert_same_bits(frozen, cv: np.ndarray) -> np.ndarray:
    """Solve ``frozen`` bound to ``cv`` on both kernels; equal bits."""
    bound = frozen.bind(cv)
    fast = bound.solve()
    with native_module.numpy_reference():
        reference = bound.solve()
    assert fast.shape == reference.shape == cv.shape[:-1] + (frozen.n_blocks,)
    np.testing.assert_array_equal(_bits(fast), _bits(reference))
    return fast


def _segment_graph(kind: str):
    """One block of ``kind`` per segment length, each over its own run
    of consts; every offset is -0.0, so a block's zero keeps its sign
    through ``(raw * gain) + offset``."""
    g = BlockGraph(IDEAL)
    rng = np.random.default_rng(len(kind))
    for n in LENGTHS:
        ids = [g.const(0.0) for _ in range(n)]
        if kind == "lin":
            g.lin([(i, float(w)) for i, w in zip(ids, rng.normal(size=n))])
        elif kind == "max":
            g.maximum(ids)
        else:
            g.minimum(ids)
    frozen = g.freeze()
    frozen.offset = np.full(frozen.n_blocks, -0.0)
    return frozen


def _values(kind: str, shape: tuple, n_const: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    size = shape + (n_const,)
    if kind == "lin":
        values = rng.normal(size=size)
        values[rng.random(size) < 0.2] = -0.0
        values[rng.random(size) < 0.2] = 0.0
        return values
    pool = np.array([0.0, -0.0, 1.0, -1.0, np.nan])
    p = [0.4, 0.4, 0.08, 0.08, 0.04] if seed % 2 else [0.5, 0.5, 0, 0, 0]
    return rng.choice(pool, size=size, p=p)


class TestSegments:
    @pytest.mark.parametrize("layout", LAYOUTS, ids=str)
    @pytest.mark.parametrize("kind", ["lin", "max", "min"])
    def test_every_segment_length(self, kind, layout):
        frozen = _segment_graph(kind)
        for seed in range(4):
            cv = _values(kind, layout, frozen.const_ids.size, seed)
            out = _assert_same_bits(frozen, cv)
            if kind != "lin" and seed % 2 == 0:
                # All-zero segments: the sign of every result is a tie
                # resolved by NumPy's reduction order, and both signs
                # occur.
                tail = out[..., -len(LENGTHS):]
                assert np.signbit(tail).any() and (~np.signbit(tail)).any()

    def test_nan_propagates_through_max_and_min(self):
        for kind, code in (("max", KIND_MAX), ("min", KIND_MIN)):
            frozen = _segment_graph(kind)
            cv = np.ones((2, frozen.const_ids.size))
            cv[0, :] = np.nan
            out = _assert_same_bits(frozen, cv)
            blocks = frozen.kind == code
            assert np.isnan(out[0, blocks]).all()
            assert not np.isnan(out[1, blocks]).any()


class TestBlockEdges:
    @staticmethod
    def _comparator_graph(supply_rail=None):
        g = BlockGraph(dataclasses.replace(IDEAL, supply_rail=supply_rail))
        a, b, t, f = (g.const(0.0) for _ in range(4))
        g.mux(a, b, t, f, threshold=0.5)
        g.gate(a, b, threshold=0.5, v_high=0.9, v_low=-0.25)
        g.lin([(t, 4.0), (f, -3.0)], constant=0.5)
        g.absdiff(t, f, weight=-1.0)
        return g.freeze()

    def test_mux_and_gate_exactly_at_threshold(self):
        frozen = self._comparator_graph()
        cv = np.array(
            [
                [0.75, 0.25, 1.0, 2.0],  # |a - b| == threshold: close
                [0.25, 0.75, 1.0, 2.0],
                [0.75, 0.2, 1.0, 2.0],  # just beyond: far
                [np.nan, 0.2, 1.0, 2.0],  # NaN compares false
                [0.0, -0.0, -0.0, 1.0],
            ]
        )
        out = _assert_same_bits(frozen, cv)
        mux, gate = out[:, 4], out[:, 5]
        assert list(mux) == [1.0, 1.0, 2.0, 2.0, 0.0]
        assert list(gate) == [-0.25, -0.25, 0.9, -0.25, -0.25]

    def test_rail_clip(self):
        frozen = self._comparator_graph(supply_rail=0.8)
        cv = np.array([[3.0, 0.0, 2.0, -2.0], [0.0, 0.0, 0.1, 0.1]])
        out = _assert_same_bits(frozen, cv)
        assert np.abs(out).max() == 0.8
        assert (out[0, :4] == [0.8, 0.0, 0.8, -0.8]).all()


class TestGraphs:
    @pytest.mark.parametrize("layout", LAYOUTS, ids=str)
    @pytest.mark.parametrize("rail", [None, 0.8])
    def test_random_dags(self, layout, rail):
        for seed in range(30):
            frozen = _random_graph(seed, supply_rail=rail).freeze()
            cv = np.random.default_rng(seed).normal(
                0.0, 1.5, size=layout + (frozen.const_ids.size,)
            )
            _assert_same_bits(frozen, cv)

    @pytest.mark.parametrize("function", ALL_FUNCTIONS)
    def test_every_chip_graph(self, function, rng):
        """Every template a chip builds for ``function`` — single
        pairs, stacked batches, row batches and, on an 8x8 array, tiles
        — bound to noisy copies of its own source voltages."""
        kwargs = {"threshold": 0.5} if function in ("lcs", "edit", "hamming") else {}
        pairs = [(rng.normal(size=12), rng.normal(size=12)) for _ in range(4)]
        templates = []
        small = AcceleratorParameters(array_rows=8, array_cols=8)
        chip = DistanceAccelerator()
        chip.compute_many(function, pairs, **kwargs)
        if get_config(function).structure == "row":
            chip.batch_pairs(function, pairs, **kwargs)
        tiled = DistanceAccelerator(params=small)
        for chip in (chip, tiled):
            chip.compute(function, *pairs[0], **kwargs)
            templates += chip._templates.values()
        assert len(templates) >= 3
        for template in templates:
            frozen = template.frozen
            base = np.broadcast_to(
                frozen.const_values, (5, frozen.const_ids.size)
            )
            noise = rng.normal(0.0, 0.02, size=base.shape)
            for cv in (base[0], base + noise):
                _assert_same_bits(frozen, cv)

    def test_chip_results_match_the_numpy_program(self, rng):
        pairs = [(rng.normal(size=16), rng.normal(size=16)) for _ in range(60)]
        chip = DistanceAccelerator()
        fast = chip.compute_many("dtw", pairs)
        with native_module.numpy_reference():
            reference = DistanceAccelerator().compute_many("dtw", pairs)
        for field in ("value", "raw_voltage", "overflow"):
            np.testing.assert_array_equal(
                [getattr(r, field) for r in fast],
                [getattr(r, field) for r in reference],
            )


def _dtw_batch_graph():
    g = BlockGraph()
    p = [g.const(0.0) for _ in range(16)]
    q = [g.const(0.0) for _ in range(16)]
    build_dtw_graph(g, p, q, np.ones((16, 16)))
    return g.freeze()


class TestReentrancy:
    def test_threads_solving_one_program_get_sequential_bits(self):
        frozen = _dtw_batch_graph()
        rng = np.random.default_rng(3)
        batches = [
            np.tile(frozen.const_values, (n_rows, 1))
            + rng.normal(0.0, 0.05, size=(n_rows, frozen.const_ids.size))
            for n_rows in (60, 7, 33, 1)
        ]
        expected = [_bits(frozen.bind(cv).solve()) for cv in batches]
        program = frozen._program()
        failures: list = []
        barrier = threading.Barrier(len(batches))

        def worker(k: int) -> None:
            barrier.wait(timeout=10)
            for _ in range(25):
                got = _bits(frozen.bind(batches[k]).solve())
                if not np.array_equal(got, expected[k]):
                    failures.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,))
                for k in range(len(batches))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert frozen._program() is program


class TestSelection:
    @pytest.fixture
    def fresh_selection(self, monkeypatch):
        """A process whose kernel has not been selected yet."""
        monkeypatch.setattr(
            native_module, "_SELECTION", native_module._Selection()
        )

    @staticmethod
    def _solve_fresh(seed: int = 5) -> tuple:
        frozen = _random_graph(seed, supply_rail=0.8).freeze()
        cv = np.random.default_rng(seed).normal(
            0.0, 1.5, size=(3, frozen.const_ids.size)
        )
        return frozen.bind(cv).solve(), frozen._program()

    def test_failed_build_falls_back_to_numpy(
        self, monkeypatch, tmp_path, fresh_selection
    ):
        native_bits = _bits(self._solve_fresh()[0])

        def failing(compiler, target):
            raise subprocess.CalledProcessError(1, [compiler])

        monkeypatch.setattr(native_module, "cache_dir", lambda: tmp_path)
        monkeypatch.setattr(native_module, "_compile", failing)
        monkeypatch.setattr(
            native_module, "_SELECTION", native_module._Selection()
        )
        assert native_module.active() is None
        assert native_module.kernel_name() == "numpy"
        solved, program = self._solve_fresh()
        assert program.native is None
        np.testing.assert_array_equal(_bits(solved), native_bits)

    def test_unwritable_cache_dir_falls_back(
        self, monkeypatch, tmp_path, fresh_selection
    ):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert native_module.active() is None
        assert self._solve_fresh()[1].native is None

    def test_missing_compiler_falls_back(self, monkeypatch, fresh_selection):
        monkeypatch.setattr(native_module, "COMPILERS", ())
        assert native_module.active() is None

    def test_cached_library_is_loaded_without_compiling(
        self, monkeypatch, fresh_selection
    ):
        def failing(compiler, target):
            raise AssertionError("the cached library should be reused")

        monkeypatch.setattr(native_module, "_compile", failing)
        assert native_module.kernel_name() == "native"

    def test_build_goes_to_the_cache_dir(
        self, monkeypatch, tmp_path, fresh_selection
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native_module.kernel_name() == "native"
        built = [p.name for p in (tmp_path / "repro").iterdir()]
        assert len(built) == 1
        assert built[0].startswith("levelprog-") and built[0].endswith(".so")

    def test_numpy_reference_seam_nests(self):
        assert native_module.kernel_name() == "native"
        with native_module.numpy_reference():
            with native_module.numpy_reference():
                assert native_module.active() is None
            assert native_module.kernel_name() == "numpy"
        assert native_module.kernel_name() == "native"
