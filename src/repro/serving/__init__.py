"""Serving layer: sharded accelerator pool for data-center deployment.

>>> from repro.serving import AcceleratorPool
>>> pool = AcceleratorPool(n_shards=2)
>>> pool.submit("hamming", [1.0, 2.0], [1.0, 3.0], threshold=0.5)
0
>>> pool.drain()[0].value
1.0
"""

from .batcher import DynamicBatcher
from .bench import (
    BenchQuery,
    BenchReport,
    generate_queries,
    run_serve_bench,
)
from .cache import ResultCache, quantise_key
from .metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    StateGauge,
)
from .pool import (
    AcceleratorPool,
    PoolBackend,
    PoolConfig,
    PoolRequest,
    PoolResponse,
)
from .resilience import (
    BreakerConfig,
    CircuitBreaker,
    ResilientBackend,
    RetryPolicy,
)

# Imported last: chaos pulls in repro.faults, whose campaign module
# imports the pool symbols above from this (then-partial) package.
from .chaos import (
    SCENARIOS,
    ChaosReport,
    ScenarioResult,
    SloSpec,
    run_chaos,
)

__all__ = [
    "AcceleratorPool",
    "BenchQuery",
    "BenchReport",
    "BreakerConfig",
    "ChaosReport",
    "CircuitBreaker",
    "Counter",
    "DynamicBatcher",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "PoolBackend",
    "PoolConfig",
    "PoolRequest",
    "PoolResponse",
    "ResilientBackend",
    "ResultCache",
    "RetryPolicy",
    "SCENARIOS",
    "ScenarioResult",
    "SloSpec",
    "StateGauge",
    "generate_queries",
    "quantise_key",
    "run_chaos",
    "run_serve_bench",
]
