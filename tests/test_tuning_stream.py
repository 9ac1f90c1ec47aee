"""The float modulate/verify loop equals the scalar device loop.

:mod:`repro.memristor.tuning` runs the Section 3.3(2) recurrence on
plain floats and reads its write/verify noise from a draw-ahead
:class:`~repro.memristor.tuning.NoiseStream`.  That is a pure
optimisation: every result, every error and the caller's generator
state afterwards must equal the loop it replaced, which drew each
noise value with a scalar ``rng.normal(0.0, s)`` and programmed
:class:`~repro.memristor.device.Memristor` objects pulse by pulse.
That loop is kept below, verbatim, as the reference.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.accelerator import DistanceAccelerator
from repro.accelerator.params import PAPER_PARAMS
from repro.errors import ConfigurationError, TuningError
from repro.faults import DriftFault, FaultInjector, StuckAtFault, recalibrate
from repro.faults.state import STUCK_NONE, STUCK_RON
from repro.memristor.device import Memristor
from repro.memristor.tuning import (
    VERIFY_VOLTAGE,
    NoiseStream,
    TuningConfig,
    TuningResult,
    tune_adder_bank,
    tune_ratio,
    tune_weight_bank,
)

# -- the scalar reference loop -------------------------------------------


def _ref_measured_ratio(m_num, m_den, rng, noise):
    true_ratio = m_num.resistance / m_den.resistance
    measured_v = VERIFY_VOLTAGE * true_ratio * (1.0 + rng.normal(0.0, noise))
    return measured_v / VERIFY_VOLTAGE


def _ref_modulate_towards(device, target_resistance, config, rng):
    current = device.resistance
    step = config.write_gain * (target_resistance - current)
    new_r = (current + step) * (1.0 + rng.normal(0.0, config.write_noise))
    p = device.params
    device.set_resistance(min(max(float(new_r), p.r_on), p.r_off))


def _ref_tune_ratio(m_num, m_den, target_ratio, config, rng):
    if target_ratio <= 0:
        raise TuningError("target ratio must be positive")
    p = m_num.params
    achievable_max = p.r_off / m_den.resistance
    achievable_min = p.r_on / m_den.resistance
    if not achievable_min <= target_ratio <= achievable_max:
        raise TuningError(
            f"ratio {target_ratio:.4g} unreachable with denominator "
            f"R={m_den.resistance:.4g} (range [{achievable_min:.4g}, "
            f"{achievable_max:.4g}])"
        )
    history = []
    for iteration in range(1, config.max_iterations + 1):
        measured = _ref_measured_ratio(m_num, m_den, rng, config.measure_noise)
        history.append(measured)
        if abs(measured / target_ratio - 1.0) <= config.tolerance:
            return TuningResult(
                achieved_ratio=m_num.resistance / m_den.resistance,
                target_ratio=target_ratio,
                iterations=iteration,
                history=history,
            )
        wanted_r = target_ratio * m_den.resistance
        _ref_modulate_towards(m_num, wanted_r, config, rng)
    raise TuningError(
        f"did not reach ratio {target_ratio:.4g} within "
        f"{config.max_iterations} iterations (last measured "
        f"{history[-1]:.4g})"
    )


class _RefStuckMemristor(Memristor):
    def __init__(self, params, resistance):
        super().__init__(params)
        super().set_resistance(resistance)

    def set_resistance(self, resistance):
        pass


def _ref_recalibrate(state, config, rng, stuck_iteration_budget=8):
    """The repair pass's site loop (``as_dict`` rows of each site)."""
    device = state.device
    r_ref = math.sqrt(device.r_on * device.r_off)
    rows = []
    for site in state.faulty_sites().tolist():
        reference = Memristor(device)
        reference.set_resistance(r_ref)
        code = int(state.stuck[site])
        if code != STUCK_NONE:
            pinned_r = device.r_on if code == STUCK_RON else device.r_off
            pinned = _RefStuckMemristor(device, pinned_r)
            stuck_config = dataclasses.replace(
                config, max_iterations=stuck_iteration_budget
            )
            with pytest.raises(TuningError):
                _ref_tune_ratio(pinned, reference, 1.0, stuck_config, rng)
            state.disable_site(site)
            rows.append((site, "dead", stuck_iteration_budget))
            continue
        factor = float(state.drift[site] * state.mismatch[site])
        drifted = Memristor(device)
        drifted.set_resistance(
            float(np.clip(r_ref * factor, device.r_on, device.r_off))
        )
        try:
            result = _ref_tune_ratio(drifted, reference, 1.0, config, rng)
        except TuningError:
            state.disable_site(site)
            rows.append((site, "dead", config.max_iterations))
            continue
        state.clear_site(site)
        state.drift[site] = result.achieved_ratio
        rows.append((site, "retuned", result.iterations))
    return rows


# -- helpers ---------------------------------------------------------------


def _device(resistance):
    device = Memristor()
    device.set_resistance(resistance)
    return device


def _run(tune, *args, **kwargs):
    """``tune(*args, **kwargs)`` as a comparable outcome."""
    try:
        result = tune(*args, **kwargs)
    except (TuningError, ConfigurationError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(result, list):
        return [dataclasses.asdict(r) for r in result]
    return dataclasses.asdict(result)


def _same_state(a, b):
    assert a.bit_generator.state == b.bit_generator.state


# -- tune_ratio / banks ----------------------------------------------------

CASES = [
    # (start R, reference R, target ratio, config)
    (70e3, 100e3, 1.0, TuningConfig()),
    (60e3, 90e3, 1.0, TuningConfig()),
    (50e3, 40e3, 2.0, TuningConfig()),
    (80e3, 100e3, 1.0, TuningConfig(tolerance=5e-4, write_noise=1e-4,
                                    max_iterations=200)),
    (2e3, 10e3, 0.5, TuningConfig(tolerance=1e-3, max_iterations=100)),
    # Lands on the clamp: the first pulse overshoots past r_off.
    (95e3, 50e3, 1.99, TuningConfig(write_gain=1.6, write_noise=0.2)),
    # Runs out of iterations: TuningError, device left where it got to.
    (30e3, 100e3, 1.0, TuningConfig(tolerance=1e-6, max_iterations=7)),
    (30e3, 100e3, 1.0, TuningConfig(tolerance=1e-6, max_iterations=1)),
    # Unreachable: raised before any draw.
    (50e3, 100e3, 5.0, TuningConfig()),
    (50e3, 100e3, -1.0, TuningConfig()),
    # Negative noise scales fail where rng.normal fails.
    (70e3, 100e3, 1.0, TuningConfig(measure_noise=-1e-4)),
    (70e3, 100e3, 1.0, TuningConfig(write_noise=-0.01)),
    # Converges in one round, so the bad write scale is never drawn.
    (100e3, 100e3, 1.0, TuningConfig(write_noise=-0.01, tolerance=0.1)),
    # A NaN pulse is what set_resistance rejects.
    (70e3, 100e3, 1.0, TuningConfig(write_noise=float("nan"))),
]


@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize("seed", [0, 5, 2017])
def test_tune_ratio_matches_scalar_loop(case, seed):
    start, ref_r, target, config = CASES[case]
    outcomes, devices, rngs = [], [], []
    for tune in (tune_ratio, _ref_tune_ratio):
        rng = np.random.default_rng(seed)
        rng.standard_normal(3)  # a generator already part-way along
        num, den = _device(start), _device(ref_r)
        outcomes.append(_run(tune, num, den, target, config=config, rng=rng))
        devices.append((num.x, den.x))
        rngs.append(rng)
    assert outcomes[0] == outcomes[1]
    assert devices[0] == devices[1]
    _same_state(*rngs)


def test_cases_cover_every_outcome():
    kinds = set()
    for start, ref_r, target, config in CASES:
        rng = np.random.default_rng(0)
        outcome = _run(
            _ref_tune_ratio, _device(start), _device(ref_r), target,
            config=config, rng=rng,
        )
        kinds.add(outcome[2][:14] if isinstance(outcome, tuple) else "ok")
    assert kinds == {
        "ok",
        "did not reach ",
        "ratio 5 unreac",
        "target ratio m",
        "target resista",
        "scale < 0",
    }


def test_unreachable_ratio_draws_nothing():
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    with pytest.raises(TuningError, match="unreachable"):
        tune_ratio(_device(50e3), _device(100e3), 5.0, rng=rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_adder_bank_matches_scalar_loop(seed):
    config = TuningConfig()
    starts = (60e3, 75e3, 90e3, 99e3, 40e3)
    outcomes, states, rngs = [], [], []
    for bank in (tune_adder_bank, None):
        rng = np.random.default_rng(seed)
        devices = [_device(r) for r in starts]
        reference = _device(100e3)
        if bank is None:
            outcome = _run(lambda: [
                _ref_tune_ratio(d, reference, 1.0, config, rng)
                for d in devices
            ])
        else:
            outcome = _run(bank, devices, reference, config=config, rng=rng)
        outcomes.append(outcome)
        states.append([d.x for d in devices])
        rngs.append(rng)
    assert outcomes[0] == outcomes[1]
    assert states[0] == states[1]
    _same_state(*rngs)


@pytest.mark.parametrize(
    "weights", [(1.0, 2.0, 4.0), (1.0, 0.0, 2.0), (1.0, 3.0, 400.0)]
)
def test_weight_bank_matches_scalar_loop(weights):
    """Including a bank that fails part-way (a non-positive weight, an
    unreachable one) after tuning its first devices."""
    config = TuningConfig()

    def reference_bank(devices, reference, weights, config, rng):
        results = []
        for device, weight in zip(devices, weights):
            if weight <= 0:
                raise TuningError("weights must be positive")
            results.append(
                _ref_tune_ratio(device, reference, 1.0 / weight, config, rng)
            )
        return results

    outcomes, states, rngs = [], [], []
    for bank in (tune_weight_bank, reference_bank):
        rng = np.random.default_rng(8)
        devices = [_device(80e3) for _ in weights]
        reference = _device(50e3)
        outcomes.append(
            _run(bank, devices, reference, weights, config=config, rng=rng)
        )
        states.append([d.x for d in devices])
        rngs.append(rng)
    assert outcomes[0] == outcomes[1]
    assert states[0] == states[1]
    _same_state(*rngs)


# -- recalibrate -----------------------------------------------------------

PARAMS = dataclasses.replace(PAPER_PARAMS, array_rows=12, array_cols=12)


@pytest.mark.parametrize("seed", [4, 21])
def test_recalibrate_matches_scalar_loop(seed):
    """A whole repair pass (thousands of draws, so many stream
    refills) from a caller's generator: same sites, outcomes,
    iterations, re-tuned drift map and generator state."""
    scenario = (
        StuckAtFault(rate=0.05),
        DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003),
    )
    config = TuningConfig(tolerance=0.001, max_iterations=100)
    chip, twin_chip = (
        DistanceAccelerator(params=PARAMS, validate=False) for _ in range(2)
    )
    state = FaultInjector(scenario, seed=seed).inject(chip)
    twin = FaultInjector(scenario, seed=seed).inject(twin_chip)
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    report = recalibrate(chip, config=config, rng=rng)
    expected = _ref_recalibrate(twin, config, ref_rng)
    assert [
        (r.site, r.outcome, r.iterations) for r in report.repairs
    ] == expected
    assert {r.outcome for r in report.repairs} == {"dead", "retuned"}
    assert state.drift.tolist() == twin.drift.tolist()
    assert state.disabled.tolist() == twin.disabled.tolist()
    assert report.total_iterations > NoiseStream.CHUNK
    _same_state(rng, ref_rng)


# -- the stream itself -----------------------------------------------------


def test_stream_hands_out_scalar_normal_values():
    rng = np.random.default_rng(11)
    ref = np.random.default_rng(11)
    scales = [1e-4, 0.02, 0.0, 3.0] * 700  # crosses several refills
    got = []
    with NoiseStream(rng) as noise:
        for s in scales:
            if noise.pos >= len(noise.buffer):
                noise.refill(noise.pos)
            got.append(0.0 + s * noise.buffer[noise.pos])
            noise.pos += 1
        assert noise.consumed == len(scales)
    assert got == [ref.normal(0.0, s) for s in scales]
    _same_state(rng, ref)
    assert rng.normal() == ref.normal()


def test_stream_rewinds_when_the_loop_raises():
    rng = np.random.default_rng(12)
    ref = np.random.default_rng(12)
    with pytest.raises(RuntimeError):
        with NoiseStream(rng) as noise:
            noise.refill(0)
            noise.pos = 5
            raise RuntimeError("mid-pass failure")
    ref.standard_normal(5)
    _same_state(rng, ref)


def test_unused_stream_leaves_the_generator_alone():
    rng = np.random.default_rng(13)
    before = rng.bit_generator.state
    with NoiseStream(rng):
        pass
    assert rng.bit_generator.state == before
