"""Characterization test: seeded recalibrations, pinned to a fixture.

Three seeded stuck-at plus ageing-drift fault maps on 12x12 chips are
put through :func:`repro.faults.recalibrate`; every site's outcome,
residual and iteration count (and the re-tuned drift map) must match
``repair_golden.json`` exactly.  The repair loop draws write and verify
noise from one RNG stream, so any change to the arithmetic or to the
order of the draws shows up here.

Regenerate the fixture (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_repair_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.accelerator import DistanceAccelerator
from repro.accelerator.params import PAPER_PARAMS
from repro.faults import DriftFault, FaultInjector, StuckAtFault, recalibrate
from repro.memristor.device import Memristor
from repro.memristor.tuning import NoiseStream, TuningConfig, _modulate_verify

FIXTURE = pathlib.Path(__file__).with_name("repair_golden.json")
SEEDS = (3, 11, 2017)
PARAMS = dataclasses.replace(PAPER_PARAMS, array_rows=12, array_cols=12)
SCENARIO = (
    StuckAtFault(rate=0.05),
    DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003),
)


def _repair(seed: int):
    chip = DistanceAccelerator(params=PARAMS, validate=False)
    state = FaultInjector(SCENARIO, seed=seed).inject(chip)
    report = recalibrate(chip)
    return {
        "seed": seed,
        "report": report.as_dict(),
        "drift": state.drift.tolist(),
    }


def _golden_run():
    return [_repair(seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("index", range(len(SEEDS)))
def test_recalibration_matches_fixture(expected, index):
    want = expected[index]
    got = _repair(want["seed"])
    assert got["report"] == want["report"]
    assert got["drift"] == want["drift"]


def test_fixture_covers_dead_and_retuned_sites(expected):
    for run in expected:
        outcomes = {r["outcome"] for r in run["report"]["repairs"]}
        assert outcomes == {"dead", "retuned"}, run["seed"]


@pytest.mark.parametrize(
    "current, target",
    [
        (2.0e3, 1.0),  # lands below r_on
        (90.0e3, 1.0e6),  # lands above r_off
        (1.0e3, 1.0e3),  # exactly on r_on
        (100.0e3, 100.0e3),  # exactly on r_off
        (10.0e3, 30.0e3),  # inside the range
    ],
)
def test_modulation_clamp_matches_np_clip(current, target):
    """A noise-free pulse lands where ``np.clip`` puts it."""
    # One round that never meets tolerance: one verify, one pulse.  A
    # 1-ohm reference makes the pulse's target resistance ``target``.
    config = TuningConfig(
        write_gain=1.0, write_noise=0.0, tolerance=-1.0, max_iterations=1
    )
    device = Memristor()
    device.set_resistance(current)
    start = device.resistance
    with NoiseStream(np.random.default_rng(0)) as noise:
        device.x, _, converged = _modulate_verify(
            device.x, 1.0, target, device.params, config, noise
        )
    assert not converged
    p = device.params
    new_r = start + config.write_gain * (target - start)
    reference = Memristor()
    reference.set_resistance(float(np.clip(new_r, p.r_on, p.r_off)))
    assert device.resistance == reference.resistance


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_golden_run(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
