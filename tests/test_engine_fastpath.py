"""Equivalence and regression tests for the vectorized engine.

The levelized solver, the graph-template cache and the batched solves
are all *pure optimisations*: every path must produce bit-identical
voltages to the reference behaviour (Jacobi sweeps over a freshly
rebuilt graph).  These tests pin that contract, plus the hot-path
bugfixes that landed with the engine (pool settle-time cache key,
batched timing/overflow, convergence retry loop).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.accelerator.array as array_module
import repro.analog.engine as engine_module
import repro.analog.graph as graph_module
from repro.accelerator import (
    AcceleratorParameters,
    DistanceAccelerator,
    StackedPairs,
)
from repro.accelerator.params import PAPER_PARAMS
from repro.analog import (
    BlockGraph,
    NonidealityModel,
    dc_solve,
    measure_convergence_many,
)
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    LengthMismatchError,
    SequenceError,
)
from repro.faults import (
    DriftFault,
    FaultInjector,
    FaultState,
    ReadDisturbFault,
    StuckAtFault,
    recalibrate,
)
from repro.serving import AcceleratorPool, PoolConfig

ALL_FUNCTIONS = (
    "dtw", "lcs", "edit", "hausdorff", "hamming", "manhattan"
)


def _kwargs(function: str) -> dict:
    if function in ("lcs", "edit", "hamming"):
        return {"threshold": 0.5}
    return {}


def _smoke_graph() -> "BlockGraph":
    """A small graph exercising every block kind (the ERC smoke mix)."""
    g = BlockGraph()
    a = g.const(0.3)
    b = g.const(0.7)
    d = g.absdiff(a, b)
    s = g.lin([(a, 1.0), (d, 0.5)])
    mx = g.maximum([a, b, d, s])
    mn = g.minimum([s, d, b])
    sel = g.mux(a, b, mx, mn, threshold=0.4)
    gated = g.gate(sel, d, threshold=0.2, v_high=0.9)
    g.mark_output("out", g.lin([(sel, 1.0), (gated, 0.25)]))
    g.mark_output("gated", gated)
    return g


class TestLevelizedEquivalence:
    def test_smoke_graph_levelized_matches_jacobi(self):
        frozen = _smoke_graph().freeze()
        levelized = dc_solve(frozen, method="levelized")
        jacobi = dc_solve(frozen, method="jacobi")
        assert np.array_equal(levelized, jacobi)

    @pytest.mark.parametrize("function", ALL_FUNCTIONS)
    def test_accelerator_values_bit_identical(self, function, rng):
        p = rng.normal(size=10)
        q = rng.normal(size=10)
        fast = DistanceAccelerator()
        reference = DistanceAccelerator(
            use_template_cache=False, solver="jacobi"
        )
        kwargs = _kwargs(function)
        a = fast.compute(function, p, q, **kwargs)
        b = reference.compute(function, p, q, **kwargs)
        assert a.value == b.value
        assert a.raw_voltage == b.raw_voltage
        assert a.adc_voltage == b.adc_voltage

    def test_tiled_values_bit_identical(self, rng):
        params = AcceleratorParameters(array_rows=4, array_cols=4)
        p = rng.normal(size=9)
        q = rng.normal(size=9)
        fast = DistanceAccelerator(params=params, validate=False)
        reference = DistanceAccelerator(
            params=params,
            validate=False,
            use_template_cache=False,
            solver="jacobi",
        )
        for function in ("dtw", "hausdorff", "manhattan"):
            a = fast.compute(function, p, q)
            b = reference.compute(function, p, q)
            assert a.value == b.value, function
            assert a.tiles == b.tiles and a.tiles > 1

    def test_unknown_method_and_solver_rejected(self):
        frozen = _smoke_graph().freeze()
        with pytest.raises(ConfigurationError):
            dc_solve(frozen, method="gauss-seidel")
        with pytest.raises(ConfigurationError):
            DistanceAccelerator(solver="spice")


#: Rail for the clipping variants of the random-DAG checks: below the
#: spread of the random sources, so the clip fires on some blocks.
RAIL = 0.8


def _random_graph(seed: int, supply_rail=None) -> "BlockGraph":
    """A seeded random DAG mixing all seven block kinds.

    Inputs are drawn from every earlier block, so fan-in, depth and
    the number of blocks per level all vary; sources appear late in
    the id order too, and some lin/max/min stages fan in more than
    eight inputs.
    """
    rng = np.random.default_rng(seed)
    g = BlockGraph(NonidealityModel(seed=seed, supply_rail=supply_rail))
    for _ in range(int(rng.integers(2, 6))):
        g.const(float(rng.normal(0.0, 1.5)))
    kinds = ["const", "lin", "absdiff", "max", "min", "mux", "gate"]
    plan = list(rng.permutation(kinds[1:]))
    plan += list(rng.choice(kinds, size=int(rng.integers(10, 50))))

    def pick(k: int) -> list:
        return [int(i) for i in rng.integers(0, len(g), size=k)]

    for kind in plan:
        fan_in = int(rng.choice([1, 2, 3, 5, 12]))
        if kind == "const":
            g.const(float(rng.normal(0.0, 1.5)))
        elif kind == "lin":
            g.lin(
                [(s, float(rng.normal())) for s in pick(fan_in)],
                constant=float(rng.normal(0.0, 0.1)),
            )
        elif kind == "absdiff":
            g.absdiff(*pick(2), weight=float(rng.uniform(0.5, 1.5)))
        elif kind == "max":
            g.maximum(pick(fan_in))
        elif kind == "min":
            g.minimum(pick(fan_in))
        elif kind == "mux":
            g.mux(*pick(4), threshold=float(rng.uniform(0.0, 1.0)))
        else:
            g.gate(
                *pick(2),
                threshold=float(rng.uniform(0.0, 1.0)),
                v_high=float(rng.normal()),
                v_low=float(rng.normal(0.0, 0.1)),
            )
    g.mark_output("out", len(g) - 1)
    return g


def _assert_levelized_is_jacobi(frozen) -> np.ndarray:
    levelized = dc_solve(frozen, method="levelized")
    jacobi = dc_solve(frozen, method="jacobi")
    assert levelized.shape == jacobi.shape
    assert np.array_equal(levelized, jacobi)
    # Signed zeros too: the solve must be the same bits.
    assert np.array_equal(np.signbit(levelized), np.signbit(jacobi))
    return levelized


class TestLevelProgram:
    """The compiled level program against the Jacobi reference."""

    SEEDS = range(60)

    @pytest.mark.parametrize("rail", [None, RAIL])
    def test_random_dags_match_jacobi(self, rail):
        clipped = 0
        for seed in self.SEEDS:
            frozen = _random_graph(seed, supply_rail=rail).freeze()
            assert set(frozen.stats()) >= set(graph_module.KIND_NAMES.values())
            assert frozen.n_levels > 2
            v = _assert_levelized_is_jacobi(frozen)
            if rail is not None:
                clipped += int(np.any(np.abs(v) == rail))
        if rail is not None:
            assert clipped > len(self.SEEDS) // 2

    @pytest.mark.parametrize("rail", [None, RAIL])
    def test_random_dags_match_jacobi_batched(self, rail):
        for seed in self.SEEDS:
            frozen = _random_graph(seed, supply_rail=rail).freeze()
            batch = np.random.default_rng(seed).normal(
                0.0, 1.5, size=(5, frozen.const_ids.size)
            )
            solved = _assert_levelized_is_jacobi(frozen.bind(batch))
            assert solved.shape == (5, frozen.n_blocks)

    def test_levels_hold_several_blocks(self):
        frozen = _random_graph(0).freeze()
        widths = np.bincount(frozen.depth)
        assert widths.max() > 1 and (widths[1:] > 1).any()

    def test_const_only_graph(self):
        g = BlockGraph(NonidealityModel(supply_rail=RAIL))
        for value in (0.3, -2.0, 0.0, 1.5):
            g.const(value)
        frozen = g.freeze()
        assert frozen.n_levels == 1
        v = _assert_levelized_is_jacobi(frozen)
        assert np.array_equal(v, [0.3, -RAIL, 0.0, RAIL])
        assert _assert_levelized_is_jacobi(BlockGraph().freeze()).size == 0

    def test_single_level_graph(self):
        g = BlockGraph()
        a, b, c = g.const(0.3), g.const(0.7), g.const(-0.2)
        g.lin([(a, 1.0), (b, -0.5)], constant=0.1)
        g.absdiff(a, c)
        g.maximum([a, b, c])
        g.minimum([c, b])
        g.mux(a, b, b, c, threshold=0.5)
        g.gate(a, c, threshold=0.1, v_high=0.9)
        g.lin([(c, 2.0)])
        frozen = g.freeze()
        assert frozen.n_levels == 2
        _assert_levelized_is_jacobi(frozen)
        batch = np.random.default_rng(1).normal(size=(3, 3))
        _assert_levelized_is_jacobi(frozen.bind(batch))

    def test_bound_views_share_the_compiled_program(self):
        frozen = _random_graph(7).freeze()
        program = frozen._program()
        bound = frozen.bind(np.zeros(frozen.const_ids.size))
        assert bound._program() is program
        rebound = frozen.bind(np.ones((3, frozen.const_ids.size)))
        rebound.solve()
        assert rebound._program() is program

    def test_template_compiles_once_across_queries(
        self, monkeypatch, rng, empty_structure_store
    ):
        compiled = []
        original = graph_module._LevelProgram.__init__

        def counting(self, frozen):
            compiled.append(frozen.n_blocks)
            original(self, frozen)

        monkeypatch.setattr(graph_module._LevelProgram, "__init__", counting)
        chip = DistanceAccelerator()
        for _ in range(5):
            chip.compute("dtw", rng.normal(size=12), rng.normal(size=12))
        assert len(compiled) == 1
        assert chip.template_cache_info()["hits"] >= 4


class TestTemplateCache:
    def test_warm_cache_hits_and_identical_values(self, rng):
        chip = DistanceAccelerator()
        p = rng.normal(size=12)
        q = rng.normal(size=12)
        first = chip.compute("dtw", p, q).value
        info = chip.template_cache_info()
        assert info["enabled"] and info["active"]
        assert info["solver"] == "levelized"
        assert info["misses"] >= 1 and info["size"] >= 1
        second = chip.compute("dtw", p, q).value
        assert chip.template_cache_info()["hits"] >= 1
        assert first == second

    def test_rebind_serves_new_inputs(self, rng):
        chip = DistanceAccelerator()
        p1, q1 = rng.normal(size=10), rng.normal(size=10)
        p2, q2 = rng.normal(size=10), rng.normal(size=10)
        chip.compute("manhattan", p1, q1)
        cached = chip.compute("manhattan", p2, q2).value
        fresh = DistanceAccelerator(use_template_cache=False).compute(
            "manhattan", p2, q2
        ).value
        assert cached == fresh

    def test_fault_transitions_invalidate(self, rng):
        chip = DistanceAccelerator()
        p, q = rng.normal(size=8), rng.normal(size=8)
        chip.compute("manhattan", p, q)
        assert chip.template_cache_info()["size"] >= 1
        epoch = chip.fault_epoch
        FaultInjector([StuckAtFault(rate=0.05)], seed=3).inject(chip)
        assert chip.fault_epoch == epoch + 1
        assert chip.template_cache_info()["size"] == 0
        chip.compute("manhattan", p, q)
        chip.clear_faults()
        assert chip.fault_epoch == epoch + 2
        assert chip.template_cache_info()["size"] == 0

    def test_faulted_and_repaired_values_match_uncached(self, rng):
        p, q = rng.normal(size=8), rng.normal(size=8)
        cached = DistanceAccelerator()
        uncached = DistanceAccelerator(
            use_template_cache=False, solver="jacobi"
        )
        clean = cached.compute("manhattan", p, q).value
        for chip in (cached, uncached):
            FaultInjector(
                [StuckAtFault(rate=0.05)], seed=11
            ).inject(chip)
        # Warm the cached chip's faulted template, then compare.
        cached.compute("manhattan", p, q)
        assert (
            cached.compute("manhattan", p, q).value
            == uncached.compute("manhattan", p, q).value
        )
        for chip in (cached, uncached):
            recalibrate(chip)
        assert (
            cached.compute("manhattan", p, q).value
            == uncached.compute("manhattan", p, q).value
        )
        for chip in (cached, uncached):
            chip.clear_faults()
        restored = cached.compute("manhattan", p, q).value
        assert restored == clean
        assert restored == uncached.compute("manhattan", p, q).value

    def test_recalibrate_bumps_epoch(self, rng):
        chip = DistanceAccelerator()
        FaultInjector([StuckAtFault(rate=0.05)], seed=5).inject(chip)
        chip.compute("manhattan", rng.normal(size=6), rng.normal(size=6))
        epoch = chip.fault_epoch
        recalibrate(chip)
        assert chip.fault_epoch == epoch + 1
        assert chip.template_cache_info()["size"] == 0

    def test_read_disturb_bypasses_cache(self, rng):
        chip = DistanceAccelerator()
        chip.inject_faults(
            FaultState(
                array_rows=chip.params.array_rows,
                array_cols=chip.params.array_cols,
                read_disturb_sigma=0.01,
            )
        )
        assert not chip.template_cache_info()["active"]
        chip.compute("manhattan", rng.normal(size=6), rng.normal(size=6))
        # Nothing may be pinned: every settle draws fresh read noise.
        assert chip.template_cache_info()["size"] == 0

    def test_lru_eviction_bounds_size(self, rng):
        chip = DistanceAccelerator()
        chip._template_capacity = 2
        for n in (4, 5, 6, 7):
            chip.compute(
                "manhattan", rng.normal(size=n), rng.normal(size=n)
            )
        assert chip.template_cache_info()["size"] <= 2


class TestBatchedSolve:
    def test_batched_rows_match_per_vector_solves(self):
        frozen = _smoke_graph().freeze()
        base = frozen.const_values
        batch = np.stack([base, base * 0.5, base * -0.25])
        solved = dc_solve(frozen.bind(batch))
        assert solved.shape == (3, frozen.n_blocks)
        for row in range(3):
            single = dc_solve(frozen.bind(batch[row]))
            assert np.array_equal(solved[row], single)

    def test_bind_rejects_wrong_width(self):
        frozen = _smoke_graph().freeze()
        with pytest.raises(ConfigurationError):
            frozen.bind(np.zeros(frozen.const_ids.size + 1))

    @pytest.mark.parametrize("function", ALL_FUNCTIONS)
    def test_compute_many_matches_sequential(self, function, rng):
        pairs = [
            (rng.normal(size=10), rng.normal(size=10))
            for _ in range(3)
        ]
        chip = DistanceAccelerator()
        kwargs = _kwargs(function)
        many = chip.compute_many(function, pairs, **kwargs)
        for (p, q), result in zip(pairs, many):
            single = chip.compute(function, p, q, **kwargs)
            assert result.value == single.value
            assert result.raw_voltage == single.raw_voltage
            assert result.adc_voltage == single.adc_voltage
            assert result.overflow == single.overflow

    @pytest.mark.parametrize(
        "function, lengths, kwargs",
        [
            ("dtw", (10, 10), {"band": 0.2}),
            ("dtw", (10, 7), {}),
            ("edit", (9, 9), {"threshold": 0.5, "paper_errata": True}),
            ("lcs", (8, 11), {"threshold": 0.5}),
        ],
    )
    def test_compute_many_matches_sequential_kwargs(
        self, function, lengths, kwargs, rng
    ):
        n, m = lengths
        pairs = [
            (rng.normal(size=n), rng.normal(size=m)) for _ in range(4)
        ]
        chip = DistanceAccelerator()
        self._assert_rows_match(chip, function, pairs, **kwargs)

    @pytest.mark.parametrize("function", ("dtw", "manhattan"))
    def test_compute_many_matches_sequential_weights(
        self, function, rng
    ):
        n = 8
        shape = (n,) if function == "manhattan" else (n, n)
        weights = rng.uniform(0.5, 1.5, size=shape)
        pairs = [
            (rng.normal(size=n), rng.normal(size=n)) for _ in range(4)
        ]
        self._assert_rows_match(
            DistanceAccelerator(), function, pairs, weights=weights
        )

    @pytest.mark.parametrize("function", ("dtw", "hausdorff", "manhattan"))
    def test_compute_many_matches_sequential_faulted_chip(
        self, function, rng
    ):
        chip = DistanceAccelerator()
        FaultInjector(
            [
                StuckAtFault(rate=0.05),
                DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.01),
            ],
            seed=9,
        ).inject(chip)
        pairs = [
            (rng.normal(size=8), rng.normal(size=8)) for _ in range(4)
        ]
        self._assert_rows_match(chip, function, pairs)

    def test_compute_many_read_disturb_matches_sequential(self, rng):
        """Regression: read disturb draws fresh noise per settle, so a
        batch must not share one template (one noise draw) across its
        rows — it falls back to the sequential loop."""
        pairs = [
            (rng.normal(size=8), rng.normal(size=8)) for _ in range(4)
        ]
        batched, sequential = DistanceAccelerator(), DistanceAccelerator()
        for chip in (batched, sequential):
            FaultInjector(
                [ReadDisturbFault(sigma=0.05)], seed=4
            ).inject(chip)
        assert not batched.vectorizes("dtw", 8, 8)
        many = [r.value for r in batched.compute_many("dtw", pairs)]
        one_by_one = [
            sequential.compute("dtw", p, q).value for p, q in pairs
        ]
        assert many == one_by_one

    @staticmethod
    def _assert_rows_match(chip, function, pairs, **kwargs):
        many = chip.compute_many(function, pairs, **kwargs)
        for (p, q), result in zip(pairs, many):
            single = chip.compute(function, p, q, **kwargs)
            assert result.value == single.value
            assert result.raw_voltage == single.raw_voltage
            assert result.adc_voltage == single.adc_voltage
            assert result.overflow == single.overflow
            assert result.n_blocks == single.n_blocks

    def test_compute_many_heterogeneous_falls_back(self, rng):
        chip = DistanceAccelerator()
        pairs = [
            (rng.normal(size=6), rng.normal(size=6)),
            (rng.normal(size=9), rng.normal(size=9)),
        ]
        many = chip.compute_many("manhattan", pairs)
        for (p, q), result in zip(pairs, many):
            assert result.value == chip.compute(
                "manhattan", p, q
            ).value

    @pytest.mark.parametrize(
        "function, lengths", [("dtw", (10, 7)), ("manhattan", (9, 9))]
    )
    def test_stacked_pairs_match_pair_list(self, function, lengths, rng):
        n, m = lengths
        pairs = [
            (rng.normal(size=n), rng.normal(size=m)) for _ in range(5)
        ]
        stacked = StackedPairs(
            np.stack([p for p, _ in pairs]), np.stack([q for _, q in pairs])
        )
        assert len(stacked) == 5
        assert all(
            np.array_equal(a, p) and np.array_equal(b, q)
            for (a, b), (p, q) in zip(stacked, pairs)
        )
        chip = DistanceAccelerator()
        assert chip.compute_many(function, stacked) == chip.compute_many(
            function, pairs
        )
        # A stack that tiles falls back to one compute per row.
        small = DistanceAccelerator(
            params=dataclasses.replace(
                PAPER_PARAMS, array_rows=4, array_cols=4
            ),
            validate=False,
        )
        assert small.compute_many(function, stacked) == [
            small.compute(function, p, q) for p, q in pairs
        ]

    def test_stacked_pairs_validate_as_a_whole(self):
        with pytest.raises(SequenceError):
            StackedPairs(np.ones(4), np.ones((1, 4)))
        with pytest.raises(SequenceError):
            StackedPairs(np.ones((2, 4)), np.ones((3, 4)))
        with pytest.raises(SequenceError):
            StackedPairs(np.ones((2, 0)), np.ones((2, 0)))
        bad = np.ones((2, 4))
        bad[1, 2] = np.inf
        with pytest.raises(SequenceError):
            StackedPairs(bad, np.ones((2, 4)))
        with pytest.raises(LengthMismatchError):
            DistanceAccelerator().compute_many(
                "manhattan", StackedPairs(np.ones((2, 4)), np.ones((2, 5)))
            )
        assert DistanceAccelerator().compute_many(
            "dtw", StackedPairs(np.ones((0, 4)), np.ones((0, 4)))
        ) == []

    def test_batch_pairs_reports_template_reuse(self, rng):
        chip = DistanceAccelerator()
        pairs = [
            (rng.normal(size=8), rng.normal(size=8)) for _ in range(4)
        ]
        cold = chip.batch_pairs("manhattan", pairs)
        warm = chip.batch_pairs("manhattan", pairs)
        assert not cold.template_cached
        assert warm.template_cached
        assert np.array_equal(cold.values, warm.values)


class TestPoolSettleKey:
    """Regression: the settle-time memo must key on the programmed
    weights and the request kwargs, not just the operand lengths."""

    def _pool(self) -> AcceleratorPool:
        return AcceleratorPool(
            n_shards=1,
            config=PoolConfig(
                enable_batching=False,
                cache_capacity=0,
                latency_model="measured",
            ),
        )

    def test_weights_digest_in_key(self, rng):
        pool = self._pool()
        p, q = rng.normal(size=6), rng.normal(size=6)
        pool.submit("manhattan", p, q)
        pool.submit("manhattan", p, q, weights=np.full(6, 2.0))
        pool.drain()
        assert len(pool._settle_cache) == 2

    def test_kwargs_in_key(self, rng):
        pool = self._pool()
        p, q = rng.normal(size=6), rng.normal(size=6)
        pool.submit("hamming", p, q, threshold=0.2)
        pool.submit("hamming", p, q, threshold=0.8)
        pool.drain()
        assert len(pool._settle_cache) == 2

    def test_identical_requests_share_one_probe(self, rng):
        pool = self._pool()
        p, q = rng.normal(size=6), rng.normal(size=6)
        pool.submit("manhattan", p, q)
        pool.submit("manhattan", p, q)
        pool.drain()
        assert len(pool._settle_cache) == 1

    def test_fault_transitions_reprobe_settle(self, rng):
        """Regression: the memo keys on the chip signature, so a chip
        charges its own settle after fault injection and again after
        recalibration instead of the healthy chip's stale probe."""
        pool = self._pool()
        chip = pool.shards[0].accelerator
        p, q = rng.normal(size=6), rng.normal(size=6)
        conversion = chip.dac.load_time(12) + chip.adc.read_time(1)

        def charged_settle() -> float:
            pool.submit("dtw", p, q)
            (response,) = pool.drain()
            return response.finish_s - response.start_s - conversion

        def probe() -> float:
            return chip.compute(
                "dtw", p, q, measure_time=True
            ).convergence_time_s

        healthy = probe()
        charged_settle()  # warms the memo (and pays reconfiguration)
        pool.inject_faults(
            FaultInjector(
                [
                    StuckAtFault(rate=0.1),
                    DriftFault(
                        rate=1.0, age_s=3.0e7, scale_per_decade=0.01
                    ),
                ],
                seed=7,
            )
        )
        faulted = probe()
        assert faulted != pytest.approx(healthy, rel=1e-3)
        assert charged_settle() == pytest.approx(faulted, rel=1e-9)
        recalibrate(chip)
        repaired = probe()
        assert repaired != pytest.approx(faulted, rel=1e-3)
        assert charged_settle() == pytest.approx(repaired, rel=1e-9)


class TestBatchTimingAndOverflow:
    def test_batch_timing_takes_slowest_tap_in_one_transient(
        self, rng, monkeypatch
    ):
        calls = []

        def fake_many(bound, outputs, **kwargs):
            calls.append(list(outputs))
            return {
                name: (float(k + 1) * 1e-9, 0.0)
                for k, name in enumerate(outputs)
            }

        monkeypatch.setattr(
            array_module, "measure_convergence_many", fake_many
        )
        chip = DistanceAccelerator()
        pairs = [
            (rng.normal(size=6), rng.normal(size=6)) for _ in range(3)
        ]
        result = chip.batch_pairs(
            "manhattan", pairs, measure_time=True
        )
        # One transient records every candidate tap; the strobe waits
        # for the slowest one.
        assert calls == [["cand0", "cand1", "cand2"]]
        assert result.convergence_time_s == pytest.approx(3e-9)

    def test_overflow_checks_both_rails(self):
        chip = DistanceAccelerator()
        rail = chip.params.vcc * 1.05
        ok = np.array([0.0, 0.2, -0.3])
        assert not chip._overflowed(ok, 0.1)
        assert chip._overflowed(np.array([0.0, rail * 1.01]), 0.1)
        assert chip._overflowed(np.array([0.0, -rail * 1.01]), 0.1)
        clip = chip.adc.spec.full_scale
        assert chip._overflowed(ok, clip)
        assert chip._overflowed(ok, np.array([0.1, clip]))


class TestConvergenceRetry:
    def test_retry_coarsens_dt_with_window(self, monkeypatch):
        attempts = []

        def always_fails(g, t_stop, dt, record=None, **kwargs):
            attempts.append((t_stop, dt))
            raise ConvergenceError("window too small")

        monkeypatch.setattr(engine_module, "transient", always_fails)
        frozen = _smoke_graph().freeze()
        with pytest.raises(ConvergenceError) as excinfo:
            measure_convergence_many(frozen, ["out"])
        assert len(attempts) == 6
        windows = [a[0] for a in attempts]
        dts = [a[1] for a in attempts]
        for k in range(1, 6):
            assert windows[k] == pytest.approx(4.0 * windows[k - 1])
            assert dts[k] == pytest.approx(4.0 * dts[k - 1])
        # The error reports the largest window actually attempted,
        # not the never-run next one.
        assert f"{windows[-1]:.3e}" in str(excinfo.value)

    def test_retry_recovers_and_returns(self, monkeypatch):
        real_transient = engine_module.transient
        state = {"failures": 2, "calls": 0}

        def flaky(g, t_stop, dt, record=None, **kwargs):
            state["calls"] += 1
            if state["calls"] <= state["failures"]:
                raise ConvergenceError("not yet")
            return real_transient(
                g, t_stop=t_stop, dt=dt, record=record, **kwargs
            )

        monkeypatch.setattr(engine_module, "transient", flaky)
        frozen = _smoke_graph().freeze()
        results = measure_convergence_many(frozen, ["out", "gated"])
        assert state["calls"] == 3
        assert set(results) == {"out", "gated"}
        for t_conv, final in results.values():
            assert t_conv >= 0.0
            assert np.isfinite(final)
