"""The configuration library of the control & configuration module.

Section 3.1: "By configuring each PE and connections between PEs, the
function of specific distance can be achieved."  This module is that
configuration lib — one :class:`FunctionConfig` per distance function,
recording:

* which PE interconnect structure it uses (matrix / row),
* the graph builder realising its Fig. 2 circuit,
* how its output voltage decodes back to distance units,
* the PE resources it activates (driving the Section 4.3 power model),
* the memristor ratio rules for its weighted variant (Section 3.2).

Switching the array from one configuration to another has a cost,
:class:`ReconfigurationCost`; :data:`RECONFIGURATION` is the chip's.
:func:`settle_s`, :func:`service_s` and :func:`switch_s` are the one
per-query cost rule every deployment bills a served query by: the pool
and its BIST probes, and the data-center server model.

The unified PE inventory (Section 3.1: nine analog subtracters, two
transmission gates, five diodes, one comparator, one buffer, one
converter) bounds every per-function resource count, which the tests
check — the reuse argument is the paper's chip-area saving.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from ..baselines.literature import CALIBRATED_OURS_PER_ELEMENT_S
from ..errors import ConfigurationError
from . import pe
from .dac_adc import AdcArray, DacArray

#: Section 3.1's unified PE inventory.
UNIFIED_PE = {
    "subtractors": 9,
    "transmission_gates": 2,
    "diodes": 5,
    "comparators": 1,
    "buffers": 1,
    "converters": 1,
}


@dataclasses.dataclass(frozen=True)
class PEResources:
    """Active resources of one PE under a given configuration.

    ``op_amps`` counts every amplifier-based element (subtractors,
    buffers, converters, adder shares); each op-amp carries two
    gain-setting memristors (the Section 4.3 power analysis counts
    ``2 x 10 uW`` of memristor power per op-amp).
    """

    op_amps: float
    comparators: int = 0
    transmission_gates: int = 0
    diodes: int = 0

    def __post_init__(self) -> None:
        if self.op_amps < 0:
            raise ConfigurationError("op_amps must be >= 0")
        for field in ("comparators", "transmission_gates", "diodes"):
            if getattr(self, field) < 0:
                raise ConfigurationError(f"{field} must be >= 0")

    @property
    def memristors(self) -> float:
        """Two gain-setting memristors per active op-amp."""
        return 2.0 * self.op_amps

    def fits_unified_pe(self) -> bool:
        """Whether the configuration fits the Section 3.1 inventory."""
        amp_budget = (
            UNIFIED_PE["subtractors"]
            + UNIFIED_PE["buffers"]
            + UNIFIED_PE["converters"]
        )
        return (
            self.op_amps <= amp_budget
            and self.comparators <= UNIFIED_PE["comparators"]
            and self.transmission_gates
            <= UNIFIED_PE["transmission_gates"]
            and self.diodes <= UNIFIED_PE["diodes"]
        )


@dataclasses.dataclass(frozen=True)
class FunctionConfig:
    """One entry of the configuration library."""

    name: str
    structure: str  # "matrix" | "row"
    builder: Callable[..., int]
    decode: str  # "resolution" | "steps"
    uses_threshold: bool
    resources: PEResources
    weight_rule: str
    supports_unequal_lengths: bool

    def __post_init__(self) -> None:
        if self.structure not in ("matrix", "row"):
            raise ConfigurationError(
                f"unknown structure {self.structure!r}"
            )
        if self.decode not in ("resolution", "steps"):
            raise ConfigurationError(f"unknown decode {self.decode!r}")


#: Circuit-derived resource counts, read off Fig. 2.  The DTW count of 7
#: op-amps is the one the paper itself uses in Section 4.3
#: ("(7R(2n-R)) x 18uW").
CONFIG_LIBRARY: Dict[str, FunctionConfig] = {
    "dtw": FunctionConfig(
        name="dtw",
        structure="matrix",
        builder=pe.build_dtw_graph,
        decode="resolution",
        uses_threshold=False,
        resources=PEResources(
            op_amps=7, comparators=0, transmission_gates=0, diodes=5
        ),
        weight_rule="M1/M2 = (2 - w)/w on the absolution subtractors",
        supports_unequal_lengths=True,
    ),
    "lcs": FunctionConfig(
        name="lcs",
        structure="matrix",
        builder=pe.build_lcs_graph,
        decode="steps",
        uses_threshold=True,
        resources=PEResources(
            op_amps=4, comparators=1, transmission_gates=2, diodes=4
        ),
        weight_rule=(
            "M1/M2 = k1, M3 = w k1 M2, M5/M4 = (1 + k1) w "
            "(Section 3.2.2)"
        ),
        supports_unequal_lengths=True,
    ),
    "edit": FunctionConfig(
        name="edit",
        structure="matrix",
        builder=pe.build_edit_graph,
        decode="steps",
        uses_threshold=True,
        resources=PEResources(
            op_amps=10, comparators=1, transmission_gates=2, diodes=5
        ),
        weight_rule="same as LCS around A3/A4/A5 (Section 3.2.3)",
        supports_unequal_lengths=True,
    ),
    "hausdorff": FunctionConfig(
        name="hausdorff",
        structure="matrix",
        builder=pe.build_hausdorff_graph,
        decode="resolution",
        uses_threshold=False,
        resources=PEResources(
            op_amps=4, comparators=0, transmission_gates=0, diodes=3
        ),
        weight_rule="M2/M1 = M3/M4 = w (Section 3.2.4)",
        supports_unequal_lengths=True,
    ),
    "hamming": FunctionConfig(
        name="hamming",
        structure="row",
        builder=pe.build_hamming_graph,
        decode="steps",
        uses_threshold=True,
        resources=PEResources(
            op_amps=4, comparators=1, transmission_gates=1, diodes=2
        ),
        weight_rule="M0/Mk = w_k in the row adder (Section 3.2.5)",
        supports_unequal_lengths=False,
    ),
    "manhattan": FunctionConfig(
        name="manhattan",
        structure="row",
        builder=pe.build_manhattan_graph,
        decode="resolution",
        uses_threshold=False,
        resources=PEResources(
            op_amps=3, comparators=0, transmission_gates=0, diodes=2
        ),
        weight_rule="M0/Mk = w_k in the row adder (Section 3.2.6)",
        supports_unequal_lengths=False,
    ),
}


def get_config(name: str) -> FunctionConfig:
    """Resolve a canonical distance name to its configuration."""
    from ..distances.base import canonical_name

    key = canonical_name(name)
    if key not in CONFIG_LIBRARY:
        raise ConfigurationError(
            f"the accelerator has no configuration for {key!r}"
        )
    return CONFIG_LIBRARY[key]


@dataclasses.dataclass(frozen=True)
class ReconfigurationCost:
    """Time model for switching the array between configurations.

    Attributes
    ----------
    tg_switch_s:
        Updating the transmission-gate pattern of every PE (digital
        control lines; one broadcast).
    memristor_write_s:
        One programming pulse (Section 4.2: ~1 us transition time).
    writes_per_weighted_pe:
        Modulate/verify iterations per reprogrammed ratio (see
        :mod:`repro.memristor.tuning`).
    """

    tg_switch_s: float = 10.0e-9
    memristor_write_s: float = 1.0e-6
    writes_per_weighted_pe: int = 3

    def switch_time(self, weighted_pes: int = 0) -> float:
        """Cost of one reconfiguration touching ``weighted_pes`` PEs."""
        if weighted_pes < 0:
            raise ConfigurationError("weighted_pes must be >= 0")
        return (
            self.tg_switch_s
            + weighted_pes
            * self.writes_per_weighted_pe
            * self.memristor_write_s
        )


#: The chip's switching cost; :func:`switch_s` bills it.
RECONFIGURATION = ReconfigurationCost()


def settle_s(function: str, n: int, m: int) -> float:
    """Calibrated analog settle of one ``n`` x ``m`` query of
    ``function``: its per-element constant times the longer input."""
    try:
        per_element_s = CALIBRATED_OURS_PER_ELEMENT_S[function]
    except KeyError:
        raise ConfigurationError(
            f"no calibrated settle time for {function!r}"
        ) from None
    return per_element_s * max(n, m)


def service_s(
    function: str,
    n: int,
    m: int,
    dac: DacArray,
    adc: AdcArray,
    settle: Optional[float] = None,
) -> float:
    """Service time of one unbatched ``n`` x ``m`` query: the settle
    (:func:`settle_s` unless given), loading both inputs through
    ``dac`` and one ``adc`` read.

    A caller that owes a reconfiguration passes ``switch + settle`` as
    ``settle``, so every deployment adds the same terms in one order.
    """
    if settle is None:
        settle = settle_s(function, n, m)
    return settle + dac.load_time(n + m) + adc.read_time(1)


def switch_s(current: Optional[str], function: str) -> float:
    """Cost of switching an array configured for ``current`` (``None``
    before its first query) to ``function``: nothing when ``function``
    is already resident, else one transmission-gate broadcast."""
    if current == function:
        return 0.0
    return RECONFIGURATION.switch_time(0)
