"""Serving benchmark: replay a mixed query stream through the pool.

``run_serve_bench`` draws a data-center-style workload (the paper's
Table: iris authentication, ECG similarity, vehicle classification …)
from a small template bank — real deployments see the same reference
patterns over and over, which is what makes the result cache earn its
keep — and replays it through an :class:`AcceleratorPool`, reporting
throughput, tail latency, cache hit rate, per-shard utilisation and
the row-structure batching speedup over a naive per-query loop.

Every value returned to a "client" is computed on the simulated
analog arrays; only the latencies come from the calibrated timing
model, so a thousand-query replay finishes in seconds of wall time.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Dict, List, Optional

import numpy as np

from ..accelerator.configurations import get_config
from ..datacenter.simulate import simulate_accelerator
from ..datacenter.workload import DEFAULT_MIX, Query
from ..errors import ConfigurationError
from .pool import AcceleratorPool, PoolConfig


@dataclasses.dataclass(frozen=True)
class BenchQuery:
    """One replayed query of the benchmark stream."""

    function: str
    p: np.ndarray
    q: np.ndarray
    arrival_s: float
    kwargs: Dict = dataclasses.field(default_factory=dict)


def generate_queries(
    n_queries: int = 1000,
    seed: int = 0,
    mix: Optional[Dict[str, float]] = None,
    row_length: int = 16,
    matrix_length: int = 8,
    n_templates: int = 8,
    mean_interarrival_s: float = 2.0e-8,
    threshold: float = 0.5,
) -> List[BenchQuery]:
    """Deterministic mixed query stream from a template bank.

    Each function owns ``n_templates`` reference sequences; a query
    pairs two of them at random, so repeats occur at realistic rates
    and the cache has something to hit.  Arrivals are Poisson.
    """
    if n_queries < 1:
        raise ConfigurationError("need at least one query")
    if n_templates < 2:
        raise ConfigurationError("need at least two templates")
    rng = np.random.default_rng(seed)
    mix = dict(DEFAULT_MIX) if mix is None else dict(mix)
    total = sum(mix.values())
    if total <= 0:
        raise ConfigurationError("mix must have positive mass")
    functions = sorted(mix)
    probabilities = np.array([mix[f] / total for f in functions])

    banks: Dict[str, np.ndarray] = {}
    for function in functions:
        length = (
            row_length
            if get_config(function).structure == "row"
            else matrix_length
        )
        banks[function] = rng.normal(size=(n_templates, length))

    choices = rng.choice(len(functions), size=n_queries, p=probabilities)
    gaps = rng.exponential(mean_interarrival_s, size=n_queries)
    arrivals = np.cumsum(gaps)
    queries = []
    for index in range(n_queries):
        function = functions[choices[index]]
        bank = banks[function]
        i, j = rng.integers(0, n_templates, size=2)
        kwargs = (
            {"threshold": threshold}
            if get_config(function).uses_threshold
            else {}
        )
        queries.append(
            BenchQuery(
                function=function,
                p=bank[i],
                q=bank[j],
                arrival_s=float(arrivals[index]),
                kwargs=kwargs,
            )
        )
    return queries


@dataclasses.dataclass
class BenchReport:
    """Everything ``serve-bench`` prints."""

    n_queries: int
    n_shards: int
    served: int
    shed: int
    cached: int
    batches: int
    batched_requests: int
    cache_hit_rate: float
    throughput_qps: float
    mean_latency_s: float
    p99_latency_s: float
    utilisations: List[float]
    row_speedup: float
    makespan_s: float
    energy_j: float
    wall_s: float
    snapshot: Dict

    @property
    def mean_batch_size(self) -> float:
        return (
            self.batched_requests / self.batches if self.batches else 0.0
        )

    def as_dict(self) -> Dict:
        data = dataclasses.asdict(self)
        data["mean_batch_size"] = self.mean_batch_size
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def table(self) -> str:
        lines = [
            f"queries:          {self.n_queries} over {self.n_shards} shards",
            f"served / shed:    {self.served} / {self.shed}",
            f"throughput:       {self.throughput_qps / 1e6:.2f} Mq/s "
            f"(modelled makespan {self.makespan_s * 1e6:.2f} us)",
            f"latency:          mean {self.mean_latency_s * 1e9:.1f} ns, "
            f"p99 {self.p99_latency_s * 1e9:.1f} ns",
            f"cache:            {self.cached} hits "
            f"({self.cache_hit_rate * 100.0:.1f} %)",
            f"batching:         {self.batches} batches, "
            f"mean size {self.mean_batch_size:.1f}, "
            f"row speedup {self.row_speedup:.1f}x vs serial loop",
            f"energy:           {self.energy_j * 1e6:.2f} uJ "
            f"(accelerator busy)",
            "per-shard util:   "
            + "  ".join(
                f"s{i}={u * 100.0:.0f}%"
                for i, u in enumerate(self.utilisations)
            ),
            f"wall time:        {self.wall_s:.2f} s (analog execution)",
        ]
        return "\n".join(lines)


def run_serve_bench(
    n_queries: int = 1000,
    n_shards: int = 4,
    seed: int = 0,
    config: Optional[PoolConfig] = None,
    queries: Optional[List[BenchQuery]] = None,
) -> BenchReport:
    """Replay ``n_queries`` mixed queries through a fresh pool."""
    if queries is None:
        queries = generate_queries(n_queries=n_queries, seed=seed)
    pool = AcceleratorPool(n_shards=n_shards, config=config)
    started = time.perf_counter()
    for query in queries:
        pool.submit(
            query.function,
            query.p,
            query.q,
            arrival_s=query.arrival_s,
            **query.kwargs,
        )
    responses = pool.drain()
    wall = time.perf_counter() - started

    served = sum(1 for r in responses if r.status == "ok")
    shed = sum(1 for r in responses if r.status == "shed")
    cached = sum(1 for r in responses if r.cached)
    latency = pool.metrics.histogram("latency")
    counters = pool.metrics.as_dict()["counters"]

    # The naive loop: one chip serving every row query in turn.
    row_queries = [
        Query(0.0, q.function, q.p.shape[0])
        for q in queries
        if get_config(q.function).structure == "row"
    ]
    serial_row_s = (
        simulate_accelerator(row_queries).makespan_s
        if row_queries
        else 0.0
    )
    row_speedup = (
        serial_row_s / pool.row_busy_s if pool.row_busy_s > 0 else 0.0
    )

    makespan = pool.makespan_s
    return BenchReport(
        n_queries=len(queries),
        n_shards=n_shards,
        served=served,
        shed=shed,
        cached=cached,
        batches=int(counters["batches"]),
        batched_requests=int(counters["batched_requests"]),
        cache_hit_rate=pool.cache.hit_rate,
        throughput_qps=served / makespan if makespan > 0 else 0.0,
        mean_latency_s=latency.mean,
        p99_latency_s=latency.percentile(99.0),
        utilisations=pool.utilisations(),
        row_speedup=row_speedup,
        makespan_s=makespan,
        energy_j=pool.energy_j,
        wall_s=wall,
        snapshot=pool.snapshot(),
    )
