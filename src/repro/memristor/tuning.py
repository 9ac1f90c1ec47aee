"""Post-fabrication resistance tuning (Section 3.3(2) of the paper).

The paper tunes all memristors with a two-step modulate/verify loop:

* **Analog subtractor** (Fig. 4(a)): ground the outputs, modulate each
  of M1..M4 through its port, then verify the ratios M1/M2 and M3/M4 by
  applying 0.1 V test inputs and measuring the transfer; iterate.
* **Analog adder** (Fig. 4(b)): treat M_{k+1} as the reference, apply
  0.1 V at each input port m_i and measure n1; modulate M_i by the
  observed offset; iterate.

We reproduce that loop against devices whose *write* operation is
imprecise (finite pulse resolution + write noise), showing geometric
convergence of the ratio error down to the verify-measurement noise
floor — the mechanism by which the accelerator tolerates +/-30 %
process variation.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..errors import TuningError
from .device import Memristor

#: Verification test voltage used throughout Section 3.3(2).
VERIFY_VOLTAGE = 0.1


@dataclasses.dataclass
class TuningConfig:
    """Knobs of the modulate/verify loop.

    Attributes
    ----------
    tolerance:
        Relative ratio error at which tuning declares success.
    max_iterations:
        Bound on modulate/verify rounds.
    write_gain:
        Fraction of the commanded resistance correction a single
        modulation pulse actually achieves (imperfect write).
    write_noise:
        Relative std-dev of multiplicative write noise.
    measure_noise:
        Relative std-dev of the verify measurement — the achievable
        error floor.
    """

    tolerance: float = 0.005
    max_iterations: int = 50
    write_gain: float = 0.7
    write_noise: float = 0.02
    measure_noise: float = 1.0e-4


@dataclasses.dataclass
class TuningResult:
    """Outcome of a tuning run."""

    achieved_ratio: float
    target_ratio: float
    iterations: int
    history: List[float]

    @property
    def relative_error(self) -> float:
        """``|achieved/target - 1|``."""
        return abs(self.achieved_ratio / self.target_ratio - 1.0)


def _measured_ratio(
    m_num: Memristor,
    m_den: Memristor,
    rng: np.random.Generator,
    noise: float,
) -> float:
    """Verify step: infer R_num/R_den from a 0.1 V test measurement.

    For the Fig. 4 circuits the measured port voltage equals
    ``VERIFY_VOLTAGE * R_num / R_den`` (inverting-gain transfer), so the
    ratio is read off directly, corrupted by measurement noise.
    """
    true_ratio = m_num.resistance / m_den.resistance
    measured_v = VERIFY_VOLTAGE * true_ratio * (
        1.0 + rng.normal(0.0, noise)
    )
    return measured_v / VERIFY_VOLTAGE


def _modulate_towards(
    device: Memristor,
    target_resistance: float,
    config: TuningConfig,
    rng: np.random.Generator,
) -> None:
    """Modulation pulse: move part-way towards the target, noisily."""
    current = device.resistance
    step = config.write_gain * (target_resistance - current)
    new_r = (current + step) * (1.0 + rng.normal(0.0, config.write_noise))
    # Scalar clamp: same value as ``np.clip`` on one float, without
    # the ufunc dispatch the repair loop would pay per pulse.
    p = device.params
    device.set_resistance(min(max(float(new_r), p.r_on), p.r_off))


def tune_ratio(
    m_num: Memristor,
    m_den: Memristor,
    target_ratio: float,
    config: Optional[TuningConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> TuningResult:
    """Tune ``m_num.R / m_den.R`` to ``target_ratio``.

    Implements the subtractor loop of Fig. 4(a): the denominator device
    is held as reference and the numerator is modulated by the verify
    offset each round.  Raises :class:`TuningError` if the loop cannot
    reach ``config.tolerance`` (e.g. the target ratio is outside the
    achievable HRS/LRS range).
    """
    if config is None:
        config = TuningConfig()
    if rng is None:
        rng = np.random.default_rng()
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

    history: List[float] = []
    for iteration in range(1, config.max_iterations + 1):
        measured = _measured_ratio(
            m_num, m_den, rng, config.measure_noise
        )
        history.append(measured)
        if abs(measured / target_ratio - 1.0) <= config.tolerance:
            return TuningResult(
                achieved_ratio=m_num.resistance / m_den.resistance,
                target_ratio=target_ratio,
                iterations=iteration,
                history=history,
            )
        wanted_r = target_ratio * m_den.resistance
        _modulate_towards(m_num, wanted_r, config, rng)
    raise TuningError(
        f"did not reach ratio {target_ratio:.4g} within "
        f"{config.max_iterations} iterations (last measured "
        f"{history[-1]:.4g})"
    )


def tune_adder_bank(
    devices: List[Memristor],
    reference: Memristor,
    config: Optional[TuningConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[TuningResult]:
    """Tune every device of an adder bank equal to the reference.

    Implements the Fig. 4(b) loop: ``M_{k+1}`` is the reference; each
    ``M_i`` is verified via its own port (0.1 V in, measure n1) and
    modulated until ``M_i == M_{k+1}``.
    """
    if config is None:
        config = TuningConfig()
    if rng is None:
        rng = np.random.default_rng()
    return [
        tune_ratio(device, reference, 1.0, config=config, rng=rng)
        for device in devices
    ]


def tune_weight_bank(
    devices: List[Memristor],
    reference: Memristor,
    weights: List[float],
    config: Optional[TuningConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[TuningResult]:
    """Tune ``M_i / M_ref = 1 / w_i`` for a weighted row adder.

    In the Fig. 1 row structure the output weight of input ``i`` is
    ``M_0 / M_i``; programming ``M_i = M_0 / w_i`` realises weight
    ``w_i`` (Section 3.2.5: ``M_0 / M_k = w_k``).
    """
    if config is None:
        config = TuningConfig()
    if rng is None:
        rng = np.random.default_rng()
    results = []
    for device, weight in zip(devices, weights):
        if weight <= 0:
            raise TuningError("weights must be positive")
        results.append(
            tune_ratio(
                device, reference, 1.0 / weight, config=config, rng=rng
            )
        )
    return results
