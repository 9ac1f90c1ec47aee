"""DAC and ADC array models (Fig. 1, Section 4.3 of the paper).

The converters referenced by the power analysis:

* DAC — Tseng et al. [28]: 8-bit, 1.6 GS/s, 32 mW (90 nm, projected).
* ADC — Kull et al. [15]: 8-bit, 8.8 GS/s, 35 mW (32 nm).

Both are modelled as ideal quantisers with the quoted resolution,
sample rate and power; quantisation is applied to every value crossing
the digital/analog boundary, so its contribution to the Fig. 5 relative
error is physical rather than assumed away.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class ConverterSpec:
    """One converter design point.

    ``full_scale`` is the symmetric input range in volts: codes span
    ``[-full_scale, +full_scale)`` for the DAC and ``[0, full_scale)``
    for the (unipolar) ADC reading distance outputs.
    """

    bits: int
    sample_rate_hz: float
    power_w: float
    full_scale: float
    bipolar: bool = True

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ConfigurationError("converter needs >= 1 bit")
        if self.sample_rate_hz <= 0 or self.power_w <= 0:
            raise ConfigurationError(
                "sample rate and power must be positive"
            )
        if self.full_scale <= 0:
            raise ConfigurationError("full scale must be positive")

    @property
    def levels(self) -> int:
        return 2**self.bits

    @property
    def lsb(self) -> float:
        span = 2.0 * self.full_scale if self.bipolar else self.full_scale
        return span / self.levels

    def quantise(self, voltages) -> np.ndarray:
        """Round to the converter grid, clipping at full scale."""
        v = np.asarray(voltages, dtype=np.float64)
        lo = -self.full_scale if self.bipolar else 0.0
        hi = self.full_scale
        clipped = np.clip(v, lo, hi - self.lsb)
        codes = np.round((clipped - lo) / self.lsb)
        return lo + codes * self.lsb

    def conversion_time(self, n_samples: int, n_converters: int = 1) -> float:
        """Seconds to move ``n_samples`` through ``n_converters``."""
        if n_converters < 1:
            raise ConfigurationError("need at least one converter")
        return math.ceil(n_samples / n_converters) / self.sample_rate_hz

    def power_for_throughput(self, samples_per_second: float) -> float:
        """Power of a converter bank sustaining the given throughput.

        Follows the paper's scaling
        ``P = (throughput / rate) * unit_power`` (its own arithmetic
        uses the continuous ratio despite the ceiling notation: 0.13 W
        = (6.5 GS/s / 1.6 GS/s) * 32 mW for the DTW DACs).
        """
        if samples_per_second < 0:
            raise ConfigurationError("throughput must be >= 0")
        return samples_per_second / self.sample_rate_hz * self.power_w


#: Tseng et al. [28], projected: 8 b, 1.6 GS/s, 32 mW.  Full scale
#: +/-128 mV gives a 1 mV LSB — 1/20 of the unit-value resolution, so
#: values up to +/-6.4 units are representable.
PAPER_DAC = ConverterSpec(
    bits=8, sample_rate_hz=1.6e9, power_w=32.0e-3, full_scale=0.128
)

#: Kull et al. [15]: 8 b, 8.8 GS/s, 35 mW.  Unipolar 512 mV full scale
#: (distance outputs are non-negative), 2 mV LSB.
PAPER_ADC = ConverterSpec(
    bits=8,
    sample_rate_hz=8.8e9,
    power_w=35.0e-3,
    full_scale=0.512,
    bipolar=False,
)


class DacArray:
    """The Fig. 1 DAC array: one converter lane per PE row/column."""

    def __init__(self, spec: ConverterSpec = PAPER_DAC, lanes: int = 256):
        if lanes < 1:
            raise ConfigurationError("need at least one DAC lane")
        self.spec = spec
        self.lanes = lanes

    def convert(self, voltages) -> np.ndarray:
        """Quantise input voltages to the DAC grid."""
        return self.spec.quantise(voltages)

    def load_time(self, n_samples: int) -> float:
        """Seconds to load ``n_samples`` inputs through the array."""
        return self.spec.conversion_time(n_samples, self.lanes)


class AdcArray:
    """The Fig. 1 ADC array reading distance outputs."""

    def __init__(self, spec: ConverterSpec = PAPER_ADC, lanes: int = 8):
        if lanes < 1:
            raise ConfigurationError("need at least one ADC lane")
        self.spec = spec
        self.lanes = lanes

    def convert(self, voltages) -> np.ndarray:
        """Quantise output voltages to the ADC grid."""
        return self.spec.quantise(voltages)

    def read_time(self, n_samples: int) -> float:
        """Seconds to read ``n_samples`` outputs through the array."""
        return self.spec.conversion_time(n_samples, self.lanes)
