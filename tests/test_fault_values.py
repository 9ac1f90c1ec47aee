"""Fault epochs re-derive graph values on a kept structure.

A fault changes memristor ratios and comparator offsets, never the
circuit topology.  So a faulted chip keeps each template's healthy
structure and derives the faulted values as vectors
(:meth:`FrozenGraph.with_values` with :meth:`FaultState.apply_weights`)
instead of rebuilding the graph through :class:`FaultedBlockGraph`.
That is a pure optimisation: every value array, and so every settled
voltage, must hold the same bits as the stage-by-stage reference build.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.analog.graph as graph_module
from repro.accelerator import DistanceAccelerator
from repro.accelerator.params import PAPER_PARAMS
from repro.analog import BlockGraph, NonidealityModel, dc_solve
from repro.errors import ConfigurationError, FaultInjectionError
from repro.faults import (
    AdcOffsetFault,
    DriftFault,
    FaultedBlockGraph,
    FaultInjector,
    FaultState,
    LostPairFault,
    StuckAtFault,
    recalibrate,
)
from repro.faults.state import STUCK_RON, STUCK_ROFF

ALL_FUNCTIONS = (
    "dtw", "lcs", "edit", "hausdorff", "hamming", "manhattan"
)

#: Rail for the clipping variants: below the spread of the random
#: sources, so the clip fires on some blocks.
RAIL = 0.8

#: Every array :meth:`FrozenGraph.with_values` re-derives, plus the
#: ones it must leave alone.
VALUE_ARRAYS = (
    "stage_weights",
    "lin_w",
    "abs_w",
    "gain",
    "tau",
    "critical_tau",
    "offset",
    "mux_thr",
    "gate_thr",
    "lin_const",
    "gate_high",
    "gate_low",
    "const_values",
)


def _kwargs(function: str) -> dict:
    if function in ("lcs", "edit", "hamming"):
        return {"threshold": 0.5}
    return {}


def _fault_state(seed: int, rows: int = 5, cols: int = 5) -> FaultState:
    """A seeded fault map: stuck-at-Ron/Roff, drift, mismatch, two
    disabled sites and a comparator offset."""
    rng = np.random.default_rng([seed, 1])
    n = rows * cols
    state = FaultState(
        array_rows=rows,
        array_cols=cols,
        stuck=rng.choice(
            [0, 0, 0, 0, STUCK_RON, STUCK_ROFF], size=n
        ).astype(np.int8),
        drift=rng.uniform(0.9, 1.1, size=n),
        mismatch=np.where(
            rng.random(n) < 0.3, rng.uniform(0.95, 1.05, size=n), 1.0
        ),
        comparator_offset_v=float(rng.normal(0.0, 3.0e-3)),
    )
    for site in rng.choice(n, size=2, replace=False).tolist():
        state.disable_site(site)
    return state


def _random_graph(graph: BlockGraph, seed: int) -> BlockGraph:
    """A seeded random DAG on ``graph`` mixing all seven block kinds.

    Some weights are exactly zero (the stuck-at path keeps their
    magnitude) or negative, some lin stages are adders fanning in
    more than eight inputs, and some are precision-tuned stages.
    """
    rng = np.random.default_rng(seed)
    for _ in range(int(rng.integers(2, 6))):
        graph.const(float(rng.normal(0.0, 1.5)))
    kinds = ["const", "lin", "absdiff", "max", "min", "mux", "gate"]
    plan = list(rng.permutation(kinds[1:]))
    plan += list(rng.choice(kinds, size=int(rng.integers(15, 50))))
    plan.append("adder")

    def pick(k: int) -> list:
        return [int(i) for i in rng.integers(0, len(graph), size=k)]

    def weight() -> float:
        return 0.0 if rng.random() < 0.15 else float(rng.normal())

    for kind in plan:
        fan_in = int(rng.choice([1, 2, 3, 5, 12]))
        if kind == "const":
            graph.const(float(rng.normal(0.0, 1.5)))
        elif kind in ("lin", "adder"):
            adder = kind == "adder" or bool(rng.random() < 0.3)
            graph.lin(
                [
                    (s, weight())
                    for s in pick(int(rng.integers(9, 20)) if adder else fan_in)
                ],
                constant=float(rng.normal(0.0, 0.1)),
                is_adder=adder,
                precision=bool(rng.random() < 0.2),
            )
        elif kind == "absdiff":
            graph.absdiff(*pick(2), weight=weight())
        elif kind == "max":
            graph.maximum(pick(fan_in))
        elif kind == "min":
            graph.minimum(pick(fan_in))
        elif kind == "mux":
            graph.mux(*pick(4), threshold=float(rng.uniform(0.0, 1.0)))
        else:
            graph.gate(
                *pick(2),
                threshold=float(rng.uniform(0.0, 1.0)),
                v_high=float(rng.normal()),
                v_low=float(rng.normal(0.0, 0.1)),
            )
    graph.mark_output("out", len(graph) - 1)
    return graph


def _healthy_and_faulted(seed: int, state: FaultState, rail=None):
    nonideality = NonidealityModel(seed=seed, supply_rail=rail)
    healthy = _random_graph(BlockGraph(nonideality), seed).freeze()
    faulted = _random_graph(
        FaultedBlockGraph(state, nonideality, healthy.timing), seed
    ).freeze()
    return healthy, faulted


def _derive(healthy, state: FaultState):
    return healthy.with_values(
        state.apply_weights(healthy.stage_weights),
        state.comparator_offset_v,
    )


def _assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestApplyWeights:
    def test_matches_scalar_path(self):
        for seed in range(10):
            state = _fault_state(seed)
            rng = np.random.default_rng(seed)
            w = rng.normal(size=80)
            w[rng.random(80) < 0.2] = 0.0
            w[:3] = (0.0, -0.0, -1.5)
            scalar = np.array(
                [state.apply_weight(k, float(x)) for k, x in enumerate(w)]
            )
            _assert_same_bits(state.apply_weights(w), scalar)

    def test_read_disturb_draws_match_scalar_sequence(self):
        vector = _fault_state(3)
        scalar = _fault_state(3)
        for state in (vector, scalar):
            state.read_disturb_sigma = 0.02
            state._read_rng = np.random.default_rng(77)
        w = np.random.default_rng(0).normal(size=40)
        for _ in range(3):
            expected = np.array(
                [scalar.apply_weight(k, float(x)) for k, x in enumerate(w)]
            )
            _assert_same_bits(vector.apply_weights(w), expected)

    def test_empty_and_exhausted(self):
        state = FaultState(array_rows=1, array_cols=2)
        assert state.apply_weights(np.zeros(0)).size == 0
        state.disabled[:] = True
        state._refresh_enabled()
        assert state.apply_weights(np.zeros(0)).size == 0
        with pytest.raises(FaultInjectionError):
            state.apply_weights(np.ones(3))


class TestRandomFaultedDags:
    """Healthy build + vector derivation against the reference build."""

    SEEDS = range(60)

    @pytest.mark.parametrize("rail", [None, RAIL])
    def test_derived_values_match_faulted_build(self, rail):
        clipped = 0
        for seed in self.SEEDS:
            state = _fault_state(seed)
            healthy, faulted = _healthy_and_faulted(seed, state, rail)
            assert set(healthy.stats()) >= set(
                graph_module.KIND_NAMES.values()
            )
            derived = _derive(healthy, state)
            for name in VALUE_ARRAYS:
                _assert_same_bits(
                    getattr(derived, name), getattr(faulted, name)
                )
            settled = faulted.solve()
            _assert_same_bits(derived.solve(), settled)
            _assert_same_bits(dc_solve(derived, method="jacobi"), settled)
            batch = np.random.default_rng(seed).normal(
                0.0, 1.5, size=(3, healthy.const_ids.size)
            )
            _assert_same_bits(
                derived.bind(batch).solve(), faulted.bind(batch).solve()
            )
            if rail is not None:
                clipped += int(np.any(np.abs(settled) == rail))
        if rail is not None:
            assert clipped > len(self.SEEDS) // 2

    def test_faults_move_every_value_kind(self):
        moved = set()
        for seed in range(10):
            state = _fault_state(seed)
            healthy, _ = _healthy_and_faulted(seed, state)
            derived = _derive(healthy, state)
            for name in ("lin_w", "abs_w", "gain", "tau", "mux_thr"):
                if not np.array_equal(
                    getattr(derived, name), getattr(healthy, name)
                ):
                    moved.add(name)
        assert moved == {"lin_w", "abs_w", "gain", "tau", "mux_thr"}

    def test_sibling_shares_structure(self):
        state = _fault_state(0)
        healthy, _ = _healthy_and_faulted(0, state)
        derived = _derive(healthy, state)
        for name in ("kind", "in_src", "in_ptr", "depth", "lin_src",
                     "lin_ptr", "const_values", "offset"):
            assert getattr(derived, name) is getattr(healthy, name)
        derived.solve()
        assert derived._plan() is healthy._plan()
        assert derived._program() is not healthy._program()
        assert derived.bind(healthy.const_values)._program() is (
            derived._program()
        )

    def test_identity_derivation_is_the_healthy_graph(self):
        healthy, _ = _healthy_and_faulted(4, _fault_state(4))
        same = healthy.with_values(healthy.stage_weights)
        for name in VALUE_ARRAYS:
            _assert_same_bits(getattr(same, name), getattr(healthy, name))

    def test_rejects_wrong_weight_count(self):
        healthy, _ = _healthy_and_faulted(5, _fault_state(5))
        with pytest.raises(ConfigurationError):
            healthy.with_values(np.ones(healthy.stage_weights.size + 1))

    def test_row_sums_match_per_block_sums(self):
        """Grouping lin blocks by fan-in reduces each row as the
        builder's per-block ``np.sum`` does, fan-in 1 to 130."""
        rng = np.random.default_rng(9)
        for fan_in in range(1, 131):
            rows = rng.normal(size=(4, fan_in)) * rng.uniform(
                0.0, 3.0, size=(4, 1)
            )
            per_block = [float(np.sum(np.abs(tuple(r)))) for r in rows]
            assert np.sum(np.abs(rows), axis=1).tolist() == per_block


def _chip(rows: int = 12, cache: bool = True) -> DistanceAccelerator:
    params = dataclasses.replace(
        PAPER_PARAMS, array_rows=rows, array_cols=rows
    )
    if cache:
        return DistanceAccelerator(params=params, validate=False)
    return DistanceAccelerator(
        params=params, validate=False, use_template_cache=False
    )


def _result_fields(result) -> tuple:
    return (
        result.value,
        result.raw_voltage,
        result.adc_voltage,
        result.overflow,
        result.tiles,
        result.n_blocks,
    )


class TestAcceleratorEquivalence:
    """A cached chip against a ``use_template_cache=False`` chip, whose
    faulted graphs are built stage by stage."""

    SCENARIO = (
        StuckAtFault(rate=0.05),
        DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003),
        LostPairFault(rate=0.05),
        AdcOffsetFault(adc_sigma_v=1.0e-3, comparator_sigma_v=2.0e-3),
    )

    def _serve(self, chip, function, inputs) -> list:
        out = [
            _result_fields(chip.compute(function, p, q, **_kwargs(function)))
            for p, q in inputs
        ]
        out += [
            _result_fields(r)
            for r in chip.compute_many(
                function, inputs[:3], **_kwargs(function)
            )
        ]
        if function in ("hamming", "manhattan"):
            batch = chip.batch_pairs(
                function, inputs[:4], **_kwargs(function)
            )
            out.append(tuple(batch.values.tolist()))
        return out

    @pytest.mark.parametrize("function", ALL_FUNCTIONS)
    def test_inject_recalibrate_clear(self, function):
        rng = np.random.default_rng(sum(map(ord, function)))
        # n = 12 fills the chip; after repair disables sites the
        # matrix functions tile it on fewer usable rows.
        inputs = [
            (rng.normal(size=n), rng.normal(size=n))
            for n in (6, 12, 12, 8)
        ]
        cached, uncached = _chip(), _chip(cache=False)
        assert self._serve(cached, function, inputs) == self._serve(
            uncached, function, inputs
        )
        injector = FaultInjector(self.SCENARIO, seed=41)
        for chip in (cached, uncached):
            injector.inject(chip)
        assert cached.fault_state.comparator_offset_v != 0.0
        faulted = self._serve(uncached, function, inputs)
        assert self._serve(cached, function, inputs) == faulted
        # Served twice: the second pass hits the derived templates.
        assert self._serve(cached, function, inputs) == faulted
        for chip in (cached, uncached):
            recalibrate(chip)
        assert cached.usable_rows < 12
        repaired = self._serve(uncached, function, inputs)
        assert self._serve(cached, function, inputs) == repaired
        if function not in ("hamming", "manhattan"):
            assert any(fields[4] > 1 for fields in repaired)
        for chip in (cached, uncached):
            chip.clear_faults()
        assert self._serve(cached, function, inputs) == self._serve(
            uncached, function, inputs
        )

    def test_read_disturb_sequences_match(self):
        rng = np.random.default_rng(5)
        inputs = [(rng.normal(size=8), rng.normal(size=8)) for _ in range(3)]
        chips = (_chip(), _chip(cache=False))
        for chip in chips:
            chip.inject_faults(
                FaultState(
                    array_rows=12,
                    array_cols=12,
                    drift=np.random.default_rng(8).uniform(
                        0.98, 1.02, size=144
                    ),
                    read_disturb_sigma=0.01,
                    seed=8,
                )
            )
        for function in ("dtw", "manhattan", "lcs"):
            cached, uncached = (
                self._serve(chip, function, inputs * 2) for chip in chips
            )
            assert cached == uncached
            # Fresh noise every settle: repeats differ (the row
            # structure reports post-ADC voltages, which may not).
            if function != "manhattan":
                n = len(inputs)
                assert cached[:n] != cached[n : 2 * n]
        assert chips[0].template_cache_info()["size"] == 0


class TestStructureCache:
    def _count_builds(self, monkeypatch) -> list:
        built: list = []
        original = BlockGraph.freeze

        def counting(graph):
            built.append(type(graph).__name__)
            return original(graph)

        monkeypatch.setattr(BlockGraph, "freeze", counting)
        return built

    def test_no_builds_after_invalidate(
        self, monkeypatch, empty_structure_store
    ):
        built = self._count_builds(monkeypatch)
        chip = _chip()
        rng = np.random.default_rng(2)
        inputs = {
            f: (rng.normal(size=8), rng.normal(size=8))
            for f in ALL_FUNCTIONS
        }
        FaultInjector(TestAcceleratorEquivalence.SCENARIO, seed=3).inject(
            chip
        )
        first = {
            f: chip.compute(f, p, q, **_kwargs(f)).value
            for f, (p, q) in inputs.items()
        }
        assert built and set(built) == {"BlockGraph"}
        misses = chip.template_cache_info()["misses"]
        built.clear()
        chip.invalidate_templates()
        assert chip.template_cache_info()["size"] == 0
        again = {
            f: chip.compute(f, p, q, **_kwargs(f)).value
            for f, (p, q) in inputs.items()
        }
        assert built == []
        assert again == first
        info = chip.template_cache_info()
        assert info["misses"] == misses + len(ALL_FUNCTIONS)
        assert info["size"] == len(ALL_FUNCTIONS)
        chip.clear_faults()
        for f, (p, q) in inputs.items():
            chip.compute(f, p, q, **_kwargs(f))
        assert built == []

    def test_uncached_chip_builds_the_reference_graph(self, monkeypatch):
        built = self._count_builds(monkeypatch)
        chip = _chip(cache=False)
        FaultInjector([StuckAtFault(rate=0.05)], seed=3).inject(chip)
        for _ in range(2):
            chip.compute("dtw", np.zeros(6), np.ones(6))
        assert built == ["FaultedBlockGraph"] * 2
