"""The reconfigurable memristor-based distance accelerator.

Public entry point:

>>> from repro.accelerator import DistanceAccelerator
>>> acc = DistanceAccelerator()
>>> result = acc.compute("manhattan", [1.0, 2.0], [2.0, 4.0])
>>> round(result.value, 1)
3.0
"""

from .array import AcceleratorResult, DistanceAccelerator, StackedPairs
from .batch import BatchResult
from .configurations import (
    CONFIG_LIBRARY,
    FunctionConfig,
    PEResources,
    ReconfigurationCost,
    UNIFIED_PE,
    get_config,
)
from .dac_adc import (
    AdcArray,
    ConverterSpec,
    DacArray,
    PAPER_ADC,
    PAPER_DAC,
)
from .early import (
    EARLY_FRACTION,
    EarlyDecision,
    early_nearest_neighbour,
    early_rank,
)
from .params import AcceleratorParameters, PAPER_PARAMS
from .power import (
    CALIBRATED_OPAMPS_PER_PE,
    EXISTING_WORK_POWER_W,
    PAPER_REPORTED_POWER_W,
    PowerBreakdown,
    accelerator_power,
    active_pe_count,
    energy_efficiency_improvement,
    energy_per_computation,
)
from .tiling import Tile, plan_matrix_tiles, plan_row_segments, tile_count

__all__ = [
    "AcceleratorParameters",
    "AcceleratorResult",
    "AdcArray",
    "BatchResult",
    "CALIBRATED_OPAMPS_PER_PE",
    "CONFIG_LIBRARY",
    "ConverterSpec",
    "DacArray",
    "DistanceAccelerator",
    "EARLY_FRACTION",
    "EXISTING_WORK_POWER_W",
    "EarlyDecision",
    "FunctionConfig",
    "PAPER_ADC",
    "PAPER_DAC",
    "PAPER_PARAMS",
    "PAPER_REPORTED_POWER_W",
    "PEResources",
    "PowerBreakdown",
    "ReconfigurationCost",
    "StackedPairs",
    "Tile",
    "UNIFIED_PE",
    "accelerator_power",
    "active_pe_count",
    "early_nearest_neighbour",
    "early_rank",
    "energy_efficiency_improvement",
    "energy_per_computation",
    "get_config",
    "plan_matrix_tiles",
    "plan_row_segments",
    "tile_count",
]
