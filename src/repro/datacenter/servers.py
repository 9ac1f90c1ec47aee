"""Server models: what actually executes the query stream.

Three deployments, matching the paper's comparison space:

* :class:`AcceleratorServer` — one reconfigurable memristor array
  (this paper), billed by the chip's per-query cost rule
  (:func:`repro.accelerator.configurations.service_s`): calibrated
  settle + DAC load + ADC read, plus a reconfiguration whenever the
  incoming query's function differs from the array's current
  configuration — the same rule the serving pool bills; power follows
  the Section 4.3 model per active configuration.
* :class:`CpuServer` — the i5-3470 software baseline.
* :class:`SingleFunctionFarm` — one fixed-function accelerator per
  distance function (the "existing works" world): each query can only
  be served by its matching device, idle devices still burn power.
"""

from __future__ import annotations

from typing import Optional

from ..accelerator.configurations import service_s, settle_s, switch_s
from ..accelerator.dac_adc import AdcArray, DacArray
from ..accelerator.power import accelerator_power
from ..baselines.cpu import modelled_cpu_time
from ..baselines.literature import EXISTING_WORKS
from ..errors import ConfigurationError
from .workload import Query

#: i5-3470 package power (W) when busy, per Intel's 77 W TDP.
CPU_POWER_W = 77.0


class AcceleratorServer:
    """The reconfigurable accelerator as a queue server, with the
    chip's default converter arrays."""

    def __init__(self) -> None:
        self.dac = DacArray()
        self.adc = AdcArray()
        self.current_function: Optional[str] = None

    def service_time(self, query: Query) -> float:
        """Seconds to serve ``query`` from the current configuration."""
        n = query.length
        reconfig = switch_s(self.current_function, query.function)
        settle = settle_s(query.function, n, n)
        self.current_function = query.function
        return service_s(
            query.function, n, n, self.dac, self.adc, reconfig + settle
        )

    def power_w(self, function: str) -> float:
        """Power while serving ``function`` (Section 4.3 model)."""
        return accelerator_power(function).total_w


class CpuServer:
    """Single-core software baseline (i5-3470 model)."""

    def service_time(self, query: Query) -> float:
        return modelled_cpu_time(query.function, query.length)

    def power_w(self, function: str) -> float:
        return CPU_POWER_W


class SingleFunctionFarm:
    """One fixed-function device per distance function.

    ``device_count`` says how many of the six devices are deployed;
    queries for functions without a device are *unserveable* — the
    situation the paper's introduction calls out.
    """

    def __init__(self, functions: Optional[list] = None) -> None:
        self.functions = (
            list(functions)
            if functions is not None
            else sorted(EXISTING_WORKS)
        )
        for f in self.functions:
            if f not in EXISTING_WORKS:
                raise ConfigurationError(f"no device model for {f!r}")

    def can_serve(self, query: Query) -> bool:
        return query.function in self.functions

    def service_time(self, query: Query) -> float:
        if not self.can_serve(query):
            raise ConfigurationError(
                f"no device for {query.function!r}"
            )
        work = EXISTING_WORKS[query.function]
        return work.per_element_s * query.length

    def power_w(self, function: str) -> float:
        return EXISTING_WORKS[function].power_w

    def idle_power_w(self) -> float:
        """Static burn of the whole farm (every device powered).

        GPUs idle at roughly 15 % of their loaded draw; that fraction
        is applied to every deployed device.
        """
        return 0.15 * sum(
            EXISTING_WORKS[f].power_w for f in self.functions
        )
