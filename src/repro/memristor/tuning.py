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
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, TuningError
from .device import DeviceParameters, Memristor

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


class NoiseStream:
    """Write/verify noise drawn ahead from ``rng``, value for value and
    state for state what scalar ``rng.normal(0.0, s)`` calls give.

    ``rng.normal(0.0, s)`` is ``0.0 + s * z`` for the generator's next
    standard normal ``z``, so the modulate/verify loop reads ``z`` from
    a buffer of ``standard_normal`` draws instead of paying a scalar
    generator call per pulse.  Buffers are drawn lazily, ``CHUNK``
    values at a time.  :meth:`close` (run by ``with``, also when the
    loop raises) rewinds the generator to its state at opening and
    redraws exactly the values consumed, so the caller's generator
    ends where the scalar calls would have left it.  Nothing else may
    draw from ``rng`` while the stream is open.
    """

    CHUNK = 1024

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._state = rng.bit_generator.state
        #: Drawn-ahead values; ``pos`` indexes the next unconsumed one.
        self.buffer: List[float] = []
        self.pos = 0
        self._dropped = 0

    def refill(self, pos: int) -> Tuple[List[float], int]:
        """Drop ``buffer[:pos]`` (consumed) and draw ``CHUNK`` more;
        returns the new ``(buffer, pos)``."""
        self._dropped += pos
        self.buffer = self.buffer[pos:] + self._rng.standard_normal(
            self.CHUNK
        ).tolist()
        self.pos = 0
        return self.buffer, 0

    @property
    def consumed(self) -> int:
        """Values handed out since the stream opened."""
        return self._dropped + self.pos

    def close(self) -> None:
        """Leave the generator as if only the consumed values were drawn."""
        if self.buffer:
            self._rng.bit_generator.state = self._state
            self._rng.standard_normal(self.consumed)
            self.buffer = []

    def __enter__(self) -> "NoiseStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _modulate_verify(
    x: float,
    r_den: float,
    target_ratio: float,
    params: DeviceParameters,
    config: TuningConfig,
    noise: NoiseStream,
    pinned: bool = False,
) -> Tuple[float, List[float], bool]:
    """The modulate/verify recurrence on plain floats.

    ``x`` is the tuned device's state and ``r_den`` the reference
    resistance, held fixed.  Each round verifies (a 0.1 V test
    measurement of ``R(x) / r_den``: for the Fig. 4 circuits the port
    voltage is ``VERIFY_VOLTAGE * R_num / R_den``, read with
    multiplicative measurement noise) and, short of ``tolerance``,
    modulates (a pulse moving ``write_gain`` of the way to the target
    resistance, with multiplicative write noise, clamped to the device
    range).  ``R(x)``, the clamp and the re-programmed ``x`` are
    :attr:`Memristor.resistance`, a scalar ``np.clip`` and
    :meth:`Memristor.set_resistance`, written out.  A ``pinned`` device
    (stuck filament) takes every pulse's noise draw but never moves.

    Returns ``(x, history, converged)``: the final state, every
    measured ratio, and whether the last one met ``tolerance``.
    """
    measure_noise = config.measure_noise
    write_noise = config.write_noise
    # A negative scale fails where ``rng.normal`` fails: before the
    # draw (the first verify, or the first pulse).
    if measure_noise < 0 and config.max_iterations > 0:
        raise ValueError("scale < 0")
    bad_write_noise = write_noise < 0
    volts = VERIFY_VOLTAGE
    r_on, r_off = params.r_on, params.r_off
    span = r_off - r_on
    gain = config.write_gain
    tolerance = config.tolerance
    wanted_r = target_ratio * r_den
    history: List[float] = []
    buffer, pos = noise.buffer, noise.pos
    last = len(buffer) - 1  # a round draws buffer[pos], buffer[pos + 1]
    for _ in range(config.max_iterations):
        if pos >= last:
            buffer, pos = noise.refill(pos)
            last = len(buffer) - 1
        current = r_on * x + r_off * (1.0 - x)
        # ``1.0 + s * z`` equals ``1.0 + (0.0 + s * z)`` bit for bit.
        measured = (
            volts * (current / r_den) * (1.0 + measure_noise * buffer[pos])
        ) / volts
        pos += 1
        history.append(measured)
        if abs(measured / target_ratio - 1.0) <= tolerance:
            noise.pos = pos
            return x, history, True
        if bad_write_noise:
            noise.pos = pos
            raise ValueError("scale < 0")
        new_r = (current + gain * (wanted_r - current)) * (
            1.0 + write_noise * buffer[pos]
        )
        pos += 1
        if not pinned:
            # ``min(max(new_r, r_on), r_off)``, spelled out.
            if r_on > new_r:
                new_r = r_on
            if r_off < new_r:
                new_r = r_off
            if new_r != new_r:  # NaN: what set_resistance rejects
                noise.pos = pos
                raise ConfigurationError(
                    f"target resistance {new_r} outside [{r_on}, {r_off}]"
                )
            x = (r_off - new_r) / span
    noise.pos = pos
    return x, history, False


def modulate_verify(
    m_num: Memristor,
    m_den: Memristor,
    target_ratio: float,
    config: TuningConfig,
    noise: NoiseStream,
    pinned: bool = False,
) -> Tuple[TuningResult, bool]:
    """Run the Fig. 4(a) loop on ``m_num`` against reference ``m_den``,
    drawing from an open :class:`NoiseStream`.

    ``m_num`` ends in its tuned state (``pinned``: unmoved).  Returns
    the result and whether it converged; the range checks of
    :func:`tune_ratio` are the caller's.
    """
    r_den = m_den.resistance
    x, history, converged = _modulate_verify(
        m_num.x, r_den, target_ratio, m_num.params, config, noise, pinned
    )
    m_num.x = x
    result = TuningResult(
        achieved_ratio=m_num.resistance / r_den,
        target_ratio=target_ratio,
        iterations=len(history),
        history=history,
    )
    return result, converged


def _tune_ratio(
    m_num: Memristor,
    m_den: Memristor,
    target_ratio: float,
    config: TuningConfig,
    noise: NoiseStream,
) -> TuningResult:
    """:func:`tune_ratio` on an open noise stream."""
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
    result, converged = modulate_verify(
        m_num, m_den, target_ratio, config, noise
    )
    if not converged:
        raise TuningError(
            f"did not reach ratio {target_ratio:.4g} within "
            f"{config.max_iterations} iterations (last measured "
            f"{result.history[-1]:.4g})"
        )
    return result


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
    with NoiseStream(rng) as noise:
        return _tune_ratio(m_num, m_den, target_ratio, config, noise)


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
    with NoiseStream(rng) as noise:
        return [
            _tune_ratio(device, reference, 1.0, config, noise)
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
    results: List[TuningResult] = []
    with NoiseStream(rng) as noise:
        for device, weight in zip(devices, weights):
            if weight <= 0:
                raise TuningError("weights must be positive")
            results.append(
                _tune_ratio(device, reference, 1.0 / weight, config, noise)
            )
    return results
