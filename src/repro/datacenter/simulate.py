"""Queueing simulation of a deployment serving the query stream.

FIFO single-server (accelerator, CPU) and per-function multi-queue
(fixed-function farm) simulations with exact recurrence-based event
processing: for FIFO,

``start_k = max(arrival_k, completion_{k-1})``,
``completion_k = start_k + service_k``.

Metrics: mean / p99 sojourn time, utilisation, total energy (busy time
times per-function power, plus idle burn where the deployment has it),
and energy per query — the quantities behind the paper's "real-time
and energy-efficient" claim.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..accelerator.configurations import get_config
from ..errors import ConfigurationError
from .servers import AcceleratorServer, CpuServer, SingleFunctionFarm
from .workload import Query


@dataclasses.dataclass
class SimulationResult:
    """Aggregate metrics of one deployment run."""

    deployment: str
    served: int
    dropped: int
    mean_sojourn_s: float
    p99_sojourn_s: float
    utilisation: float
    busy_energy_j: float
    idle_energy_j: float
    makespan_s: float

    @property
    def total_energy_j(self) -> float:
        return self.busy_energy_j + self.idle_energy_j

    @property
    def energy_per_query_j(self) -> float:
        if self.served == 0:
            return float("inf")
        return self.total_energy_j / self.served


def _fifo(
    queries: Sequence[Query],
    service_time,
    power_w,
    deployment: str,
    idle_power_w: float = 0.0,
) -> SimulationResult:
    if len(queries) == 0:
        raise ConfigurationError("empty query stream")
    sojourns: List[float] = []
    busy_energy = 0.0
    busy_time = 0.0
    completion = 0.0
    for query in queries:
        start = max(query.arrival_s, completion)
        service = service_time(query)
        completion = start + service
        sojourns.append(completion - query.arrival_s)
        busy_energy += service * power_w(query.function)
        busy_time += service
    makespan = completion
    sojourns_arr = np.array(sojourns)
    return SimulationResult(
        deployment=deployment,
        served=len(queries),
        dropped=0,
        mean_sojourn_s=float(np.mean(sojourns_arr)),
        p99_sojourn_s=float(np.percentile(sojourns_arr, 99)),
        utilisation=busy_time / makespan if makespan > 0 else 0.0,
        busy_energy_j=busy_energy,
        idle_energy_j=idle_power_w * max(makespan - busy_time, 0.0),
        makespan_s=makespan,
    )


def simulate_accelerator(
    queries: Sequence[Query],
    server: Optional[AcceleratorServer] = None,
) -> SimulationResult:
    """One reconfigurable accelerator, FIFO."""
    if server is None:
        server = AcceleratorServer()
    return _fifo(
        queries,
        server.service_time,
        server.power_w,
        deployment="reconfigurable accelerator",
    )


def simulate_cpu(
    queries: Sequence[Query],
    server: Optional[CpuServer] = None,
) -> SimulationResult:
    """One CPU core, FIFO."""
    if server is None:
        server = CpuServer()
    return _fifo(
        queries,
        server.service_time,
        server.power_w,
        deployment="CPU (i5-3470 model)",
    )


def simulate_farm(
    queries: Sequence[Query],
    farm: Optional[SingleFunctionFarm] = None,
) -> SimulationResult:
    """Fixed-function devices, one FIFO queue per function.

    Queries without a matching device are dropped (counted) — the
    paper's point about single-function accelerators in a mixed
    data center.
    """
    if farm is None:
        farm = SingleFunctionFarm()
    if len(queries) == 0:
        raise ConfigurationError("empty query stream")
    completions: Dict[str, float] = {f: 0.0 for f in farm.functions}
    busy: Dict[str, float] = {f: 0.0 for f in farm.functions}
    sojourns: List[float] = []
    busy_energy = 0.0
    dropped = 0
    makespan = 0.0
    for query in queries:
        if not farm.can_serve(query):
            dropped += 1
            continue
        f = query.function
        start = max(query.arrival_s, completions[f])
        service = farm.service_time(query)
        completions[f] = start + service
        sojourns.append(completions[f] - query.arrival_s)
        busy[f] += service
        busy_energy += service * farm.power_w(f)
        makespan = max(makespan, completions[f])
    if not sojourns:
        raise ConfigurationError("farm served no queries")
    sojourns_arr = np.array(sojourns)
    total_busy = sum(busy.values())
    idle_energy = farm.idle_power_w() * max(
        makespan - total_busy / max(len(farm.functions), 1), 0.0
    )
    return SimulationResult(
        deployment="single-function farm",
        served=len(sojourns),
        dropped=dropped,
        mean_sojourn_s=float(np.mean(sojourns_arr)),
        p99_sojourn_s=float(np.percentile(sojourns_arr, 99)),
        utilisation=(
            total_busy / (makespan * len(farm.functions))
            if makespan > 0
            else 0.0
        ),
        busy_energy_j=busy_energy,
        idle_energy_j=idle_energy,
        makespan_s=makespan,
    )


def simulate_pool(
    queries: Sequence[Query],
    n_shards: int = 4,
    config=None,
    seed: int = 0,
    n_templates: int = 8,
) -> SimulationResult:
    """Pooled accelerators: N sharded chips, batching and caching.

    Materialises each abstract :class:`Query` into concrete sequences
    drawn from a per-(function, length) template bank — data centers
    replay the same reference patterns, which is what the pool's cache
    exploits — and replays the stream through
    :class:`repro.serving.AcceleratorPool`.  Unlike the single-server
    deployments, every query here executes on a real simulated analog
    array.  Its latencies and energy are billed by the chip's one
    per-query cost rule, the one :class:`AcceleratorServer` bills
    (:mod:`repro.accelerator.configurations`).  One shard with
    batching and the cache off reproduces :func:`simulate_accelerator`'s
    sojourns and busy energy bit for bit, so any difference between
    the two comes from sharding, batching or caching.
    """
    from ..serving import AcceleratorPool

    if len(queries) == 0:
        raise ConfigurationError("empty query stream")
    rng = np.random.default_rng(seed)
    banks: Dict = {}
    pool = AcceleratorPool(n_shards=n_shards, config=config)
    for query in queries:
        key = (query.function, query.length)
        if key not in banks:
            banks[key] = rng.normal(
                size=(n_templates, query.length)
            )
        bank = banks[key]
        i, j = rng.integers(0, len(bank), size=2)
        kwargs = (
            {"threshold": 0.5}
            if get_config(query.function).uses_threshold
            else {}
        )
        pool.submit(
            query.function,
            bank[i],
            bank[j],
            arrival_s=query.arrival_s,
            **kwargs,
        )
    responses = pool.drain()
    ok = [r for r in responses if r.status == "ok"]
    if not ok:
        raise ConfigurationError("pool served no queries")
    sojourns = np.array([r.latency_s for r in ok])
    makespan = pool.makespan_s
    utilisations = pool.utilisations()
    return SimulationResult(
        deployment=f"pooled accelerators (x{n_shards})",
        served=len(ok),
        dropped=len(responses) - len(ok),
        mean_sojourn_s=float(np.mean(sojourns)),
        p99_sojourn_s=float(np.percentile(sojourns, 99)),
        utilisation=float(np.mean(utilisations)),
        busy_energy_j=pool.energy_j,
        idle_energy_j=0.0,
        makespan_s=makespan,
    )


def comparison_table(
    results: Sequence[SimulationResult],
) -> str:
    """Printable comparison of deployments."""
    lines = [
        f"{'deployment':<28} {'served':>7} {'drop':>5} "
        f"{'mean lat':>10} {'p99 lat':>10} {'util':>6} "
        f"{'energy/query':>13}"
    ]
    for r in results:
        lines.append(
            f"{r.deployment:<28} {r.served:>7} {r.dropped:>5} "
            f"{r.mean_sojourn_s * 1e6:>8.2f}us "
            f"{r.p99_sojourn_s * 1e6:>8.2f}us "
            f"{r.utilisation:>6.1%} "
            f"{r.energy_per_query_j * 1e6:>11.3f}uJ"
        )
    return "\n".join(lines)
