"""Analog non-ideality models for the behavioural simulator.

The Fig. 5 relative errors come from specific circuit imperfections the
paper names: finite op-amp gain, input-offset "zero drift" (blamed for
the larger DTW/EdD errors), diode selection softness, comparator offset,
and the residual memristor-ratio error left after tuning.  Each is a
knob here so the ablation benchmarks can switch them on and off.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class NonidealityModel:
    """Magnitudes of the analog error sources.

    Attributes
    ----------
    open_loop_gain:
        Op-amp DC gain A0 (Table 1: 1e4); each amplifier stage realises
        ``A0 / (A0 + noise_gain)`` of its ideal transfer.
    offset_sigma:
        Std-dev (volts) of the systematic input-referred offset of each
        amplifier/comparator stage ("zero drift").
    diode_drop:
        Residual voltage error of a diode max/min selection (volts);
        Table 1 uses 0 V threshold diodes, leaving only the finite
        on-conductance error.
    comparator_offset_sigma:
        Std-dev (volts) of each comparator's threshold error.
    weight_tolerance:
        Relative error bound of tuned memristor ratios.  Section 3.3's
        tolerance control bounds as-fabricated pair mismatch at 1 %;
        the post-fabrication modulate/verify tuning loop then trims it
        towards the verify-measurement noise floor (~0.1-0.5 %, see
        :mod:`repro.memristor.tuning`), hence the 0.2 % default.
    supply_rail:
        When set, every stage output saturates at ``+/-supply_rail``
        volts (real op-amps clip at their supplies).  ``None`` (the
        default) leaves stages unbounded so the ideal chip remains an
        exact implementation of Eq. (2)-(7); set it (typically to
        Vcc) to study overflow behaviour.
    seed:
        Seed for drawing the per-instance systematic errors; a given
        seed models one fabricated-and-tuned chip.
    """

    open_loop_gain: float = 1.0e4
    offset_sigma: float = 2.0e-4
    diode_drop: float = 2.0e-5
    comparator_offset_sigma: float = 5.0e-4
    weight_tolerance: float = 0.002
    supply_rail: Optional[float] = None
    seed: int = 2017

    def __post_init__(self) -> None:
        if self.open_loop_gain <= 1:
            raise ConfigurationError("open-loop gain must exceed 1")
        for field in (
            "offset_sigma",
            "diode_drop",
            "comparator_offset_sigma",
            "weight_tolerance",
        ):
            if getattr(self, field) < 0:
                raise ConfigurationError(f"{field} must be >= 0")
        if self.supply_rail is not None and self.supply_rail <= 0:
            raise ConfigurationError("supply_rail must be positive")

    def rng(self) -> np.random.Generator:
        """Generator for this chip instance's systematic errors."""
        return np.random.default_rng(self.seed)

    def gain_factor(self, noise_gain: float) -> float:
        """Closed-loop gain shrink ``A0 / (A0 + noise_gain)``."""
        return self.open_loop_gain / (self.open_loop_gain + noise_gain)


#: Table 1-derived default chip.
DEFAULT_NONIDEALITY = NonidealityModel()

#: A mathematically perfect circuit — used as the ablation reference.
IDEAL = NonidealityModel(
    open_loop_gain=1.0e12,
    offset_sigma=0.0,
    diode_drop=0.0,
    comparator_offset_sigma=0.0,
    weight_tolerance=0.0,
)


@dataclasses.dataclass(frozen=True)
class TimingModel:
    """Stage time constants of the behavioural simulator.

    Derived from Table 1: GBW 50 GHz, 20 fF per net, memristor network
    Thevenin resistance around HRS/2 = 50 kOhm.  Three stage classes:

    * ``opamp``: closed-loop amplifier stages —
      ``tau = ng / (2 pi GBW) + r_net * c_par``  (~1 ns).
    * ``adder``: summing stages whose virtual-ground net carries one
      parasitic per input, so ``tau`` grows linearly with fan-in —
      the mechanism behind the paper's "linear capacitance to the
      input size" observation for the row structure.
    * ``diode``: selection stages charging through a conducting diode
      (~10 Ohm), effectively instantaneous — the reason HauD's
      column-parallel max tree adds almost no delay (Section 4.2).
    """

    gbw_hz: float = 50.0e9
    c_parasitic: float = 20.0e-15
    r_network: float = 50.0e3
    r_diode_on: float = 10.0
    comparator_tau: float = 2.0e-10

    def opamp_tau(self, noise_gain: float = 2.0) -> float:
        return noise_gain / (2.0 * np.pi * self.gbw_hz) + (
            self.r_network * self.c_parasitic
        )

    def adder_tau(self, fan_in: int, noise_gain: Optional[float] = None) -> float:
        """Summing-stage tau; elementwise over arrays of ``fan_in`` and
        ``noise_gain`` too (as is :meth:`opamp_tau`)."""
        if noise_gain is None:
            noise_gain = 1.0 + fan_in
        bandwidth_term = noise_gain / (2.0 * np.pi * self.gbw_hz)
        network_term = (
            self.r_network * self.c_parasitic * np.maximum(fan_in, 1)
        )
        return bandwidth_term + network_term

    def diode_tau(self, fan_in: int) -> float:
        return max(
            self.r_diode_on * self.c_parasitic * max(fan_in, 1),
            1.0e-12,
        )


DEFAULT_TIMING = TimingModel()
