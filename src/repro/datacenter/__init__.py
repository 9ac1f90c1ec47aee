"""Data-center deployment simulation (the paper's Section 1 framing).

Generates mixed mining-query streams and compares serving them with
the reconfigurable accelerator, a CPU, or a farm of single-function
accelerators — latency, utilisation and energy per query.
"""

from .servers import (
    AcceleratorServer,
    CPU_POWER_W,
    CpuServer,
    SingleFunctionFarm,
)
from .simulate import (
    SimulationResult,
    comparison_table,
    simulate_accelerator,
    simulate_cpu,
    simulate_farm,
    simulate_pool,
)
from .workload import (
    DEFAULT_MIX,
    Query,
    WorkloadSpec,
    generate_workload,
    mix_of,
)

__all__ = [
    "AcceleratorServer",
    "CPU_POWER_W",
    "CpuServer",
    "DEFAULT_MIX",
    "Query",
    "SimulationResult",
    "SingleFunctionFarm",
    "WorkloadSpec",
    "comparison_table",
    "generate_workload",
    "mix_of",
    "simulate_accelerator",
    "simulate_cpu",
    "simulate_farm",
    "simulate_pool",
]
