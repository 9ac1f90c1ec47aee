"""Online built-in self-test (BIST) for accelerator shards.

A faulted analog chip does not crash — it settles to a plausible wrong
voltage.  The only way to notice at runtime is to probe the chip with
inputs whose fault-free outputs are known and compare.  The
:class:`BistRunner` does exactly that: per shipping configuration (all
six distance functions, reusing the configuration library) it settles
a handful of golden probe vectors on the chip under test and on a
*fault-free twin* — same parameters, same non-ideality seed, no fault
map — and classifies the shard from the measured relative-error
deltas.  Because the behavioural simulator is deterministic per chip
seed, a healthy shard reproduces its golden outputs exactly; any
excess error is attributable to runtime faults.

The probe set is deliberately small (a few short vectors per
function): a probe exercises the same low-index PE sites the serving
traffic of comparable length uses, so detection coverage tracks the
sites that actually matter.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..accelerator import DistanceAccelerator
from ..accelerator.configurations import (
    CONFIG_LIBRARY,
    get_config,
    settle_s,
)
from ..errors import ConfigurationError

#: Shard health classes, in increasing severity.
HEALTHY = "healthy"
DEGRADED = "degraded"
FAILED = "failed"


@dataclasses.dataclass(frozen=True)
class FunctionProbe:
    """Measured error of one function's golden-vector probes."""

    function: str
    max_error: float
    mean_error: float
    n_vectors: int

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class HealthReport:
    """Severity-ranked outcome of one BIST pass over one shard."""

    status: str
    probes: List[FunctionProbe]
    degraded_threshold: float
    failed_threshold: float
    modelled_time_s: float

    def __post_init__(self) -> None:
        self.probes = sorted(
            self.probes, key=lambda p: p.max_error, reverse=True
        )

    @property
    def max_error(self) -> float:
        return self.probes[0].max_error if self.probes else 0.0

    @property
    def worst_function(self) -> Optional[str]:
        return self.probes[0].function if self.probes else None

    @property
    def is_healthy(self) -> bool:
        return self.status == HEALTHY

    def as_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "max_error": self.max_error,
            "worst_function": self.worst_function,
            "degraded_threshold": self.degraded_threshold,
            "failed_threshold": self.failed_threshold,
            "modelled_time_s": self.modelled_time_s,
            "probes": [p.as_dict() for p in self.probes],
        }

    def render(self) -> str:
        lines = [
            f"BIST: {self.status} (max error "
            f"{self.max_error:.3%}, worst {self.worst_function})"
        ]
        for probe in self.probes:
            lines.append(
                f"  {probe.function:<10} max {probe.max_error:.3%} "
                f"mean {probe.mean_error:.3%} "
                f"({probe.n_vectors} vectors)"
            )
        return "\n".join(lines)


class BistRunner:
    """Golden-vector self-test over the six shipping configurations.

    Parameters
    ----------
    functions:
        Configurations to probe (default: the whole library).
    n_vectors:
        Probe pairs per function.
    length:
        Probe sequence length (kept short: BIST must be cheap enough
        to run between serving windows).
    threshold:
        Match threshold forwarded to the thresholded functions.
    degraded_threshold / failed_threshold:
        Relative-error classification bounds: a shard is *degraded*
        above the first (still serving after recalibration review) and
        *failed* above the second.
    seed:
        Probe-vector seed — fixed so golden outputs are cacheable.
    """

    def __init__(
        self,
        functions: Optional[Sequence[str]] = None,
        n_vectors: int = 2,
        length: int = 8,
        threshold: float = 0.5,
        degraded_threshold: float = 0.01,
        failed_threshold: float = 0.10,
        seed: int = 20170618,
    ) -> None:
        if functions is None:
            functions = sorted(CONFIG_LIBRARY)
        self.functions = [get_config(f).name for f in functions]
        if n_vectors < 1:
            raise ConfigurationError("need at least one probe vector")
        if length < 2:
            raise ConfigurationError("probe length must be >= 2")
        if not 0.0 < degraded_threshold < failed_threshold:
            raise ConfigurationError(
                "need 0 < degraded_threshold < failed_threshold"
            )
        self.n_vectors = n_vectors
        self.length = length
        self.threshold = threshold
        self.degraded_threshold = degraded_threshold
        self.failed_threshold = failed_threshold
        self.seed = seed
        self._vector_cache: Optional[
            List[Tuple[np.ndarray, np.ndarray]]
        ] = None
        self._golden_cache: Dict[Tuple, Dict[str, List[float]]] = {}

    # -- probe inputs ------------------------------------------------------
    def vectors(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The deterministic probe pairs (shared by every function)."""
        if self._vector_cache is None:
            rng = np.random.default_rng(self.seed)
            self._vector_cache = [
                (
                    rng.normal(size=self.length),
                    rng.normal(size=self.length),
                )
                for _ in range(self.n_vectors)
            ]
        return self._vector_cache

    def _kwargs(self, function: str) -> Dict[str, float]:
        if get_config(function).uses_threshold:
            return {"threshold": self.threshold}
        return {}

    # -- golden outputs ----------------------------------------------------
    def golden(
        self, accelerator: DistanceAccelerator
    ) -> Dict[str, List[float]]:
        """Fault-free settles of the probe set for this chip design."""
        key = accelerator._healthy_signature()
        if key not in self._golden_cache:
            twin = DistanceAccelerator(
                params=accelerator.params,
                nonideality=accelerator.nonideality,
                timing=accelerator.timing,
                dac=accelerator.dac,
                adc=accelerator.adc,
                quantise_io=accelerator.quantise_io,
                solver=accelerator.solver,
                validate=False,
            )
            out: Dict[str, List[float]] = {}
            for function in self.functions:
                kwargs = self._kwargs(function)
                # One vectorized settle per function: the probe pairs
                # share a structure, so compute_many batches them
                # (bit-identical to per-pair compute calls).
                out[function] = [
                    r.value
                    for r in twin.compute_many(
                        function, self.vectors(), **kwargs
                    )
                ]
            self._golden_cache[key] = out
        return self._golden_cache[key]

    # -- the probe ---------------------------------------------------------
    def probe(self, accelerator: DistanceAccelerator) -> HealthReport:
        """Settle the probe set on the shard and classify its health."""
        golden = self.golden(accelerator)
        probes: List[FunctionProbe] = []
        modelled_s = 0.0
        for function in self.functions:
            kwargs = self._kwargs(function)
            errors = []
            results = accelerator.compute_many(
                function, self.vectors(), **kwargs
            )
            for result, reference in zip(results, golden[function]):
                # Fig. 5's hybrid relative/absolute error scale.
                errors.append(
                    abs(result.value - reference)
                    / max(abs(reference), 1.0)
                )
                modelled_s += settle_s(
                    function, self.length, self.length
                )
            probes.append(
                FunctionProbe(
                    function=function,
                    max_error=float(np.max(errors)),
                    mean_error=float(np.mean(errors)),
                    n_vectors=len(errors),
                )
            )
        worst = max(p.max_error for p in probes)
        if worst > self.failed_threshold:
            status = FAILED
        elif worst > self.degraded_threshold:
            status = DEGRADED
        else:
            status = HEALTHY
        return HealthReport(
            status=status,
            probes=probes,
            degraded_threshold=self.degraded_threshold,
            failed_threshold=self.failed_threshold,
            modelled_time_s=modelled_s,
        )
