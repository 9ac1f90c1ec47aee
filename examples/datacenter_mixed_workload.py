"""The paper's headline scenario: one data-center accelerator serving
applications with *different* distance functions.

Section 1: "a Google data center needs to deal with healthcare and
smart city applications.  The former adopts HamD for iris
authentication and LCS for ECG similarity, while the latter uses DTW
for vehicle classification.  None of these existing works can work
well in this scenario as they are optimized for a single distance
function only."

This example streams an interleaved job queue (HamD + LCS + DTW) two
ways and prints the reconfiguration count and the makespan of each:

* ``simulate_accelerator`` — one chip serving the queue in arrival
  order, so every job switches the array to a new configuration;
* a 3-shard ``AcceleratorPool`` drain — least-loaded placement with
  function affinity keeps each function resident on its own shard.

The whole queue arrives at once, and the pool's row batcher is off.
Both sides bill every job by the chip's one cost model (settle,
conversion and reconfiguration), so they differ only in scheduling.

Run:  python examples/datacenter_mixed_workload.py
"""

import numpy as np

from repro.datacenter import Query, simulate_accelerator
from repro.serving import AcceleratorPool, PoolConfig


def make_queue(rng: np.random.Generator, total: int = 30):
    """An interleaved arrival stream, as a shared data center sees it:
    ``(function, p, q, kwargs)`` per job."""
    jobs = []
    for k in range(total):
        kind = k % 3
        if kind == 0:  # iris authentication (HamD on binary codes)
            p = rng.integers(0, 2, 32).astype(float)
            q = rng.integers(0, 2, 32).astype(float)
            jobs.append(("hamming", p, q, {"threshold": 0.5}))
        elif kind == 1:  # ECG similarity (LCS)
            p = rng.normal(size=20)
            q = p + rng.normal(0, 0.3, 20)
            jobs.append(("lcs", p, q, {"threshold": 0.6}))
        else:  # vehicle classification (DTW)
            p = rng.normal(size=16)
            q = rng.normal(size=16)
            jobs.append(("dtw", p, q, {}))
    return jobs


def main() -> None:
    jobs = make_queue(np.random.default_rng(2017))

    functions = [function for function, _, _, _ in jobs]
    switches = sum(
        1
        for k, function in enumerate(functions)
        if k == 0 or function != functions[k - 1]
    )
    serial_s = simulate_accelerator(
        [Query(0.0, function, len(p)) for function, p, _, _ in jobs]
    ).makespan_s
    print(
        f"  serial loop, 1 chip: {switches:>3} reconfigurations, "
        f"makespan {serial_s * 1e6:8.3f} us"
    )

    pool = AcceleratorPool(
        n_shards=3, config=PoolConfig(enable_batching=False)
    )
    for function, p, q, kwargs in jobs:
        pool.submit(function, p, q, arrival_s=0.0, **kwargs)
    responses = pool.drain()
    counters = pool.snapshot()["counters"]
    print(
        f"pool drain, 3 shards: {counters['reconfigurations']:>3} "
        f"reconfigurations, makespan {pool.makespan_s * 1e6:8.3f} us"
    )

    print("\njobs per shard (function affinity keeps each resident):")
    for shard in pool.shards:
        served = [
            jobs[r.request_id][0] for r in responses if r.shard == shard.index
        ]
        functions = ", ".join(sorted(set(served)))
        print(f"  shard {shard.index}: {len(served):>3} jobs ({functions})")


if __name__ == "__main__":
    main()
