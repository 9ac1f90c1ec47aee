"""Subsequence similarity search — the paper's >99% motivation.

Rakthanmanon et al. [24]: in subsequence search under DTW, distance
computation takes more than 99% of the runtime.  This example runs a
UCR-suite-style search (z-normalised windows, LB_Kim/LB_Keogh cascade,
Sakoe-Chiba band) over a long synthetic stream, profiles how much time
the distance function takes, and shows what an accelerator with ~ns
latency per distance would do to the wall clock.

Run:  python examples/subsequence_search_ucr.py
"""

import time

import numpy as np

from repro.accelerator import DistanceAccelerator
from repro.backends import SoftwareBackend
from repro.mining import subsequence_search

STREAM = 1500
QUERY = 32
BAND = 0.08


def main() -> None:
    rng = np.random.default_rng(5)
    stream = np.cumsum(rng.normal(0.0, 0.3, STREAM))  # random walk
    query = np.sin(np.linspace(0, 3 * np.pi, QUERY)) * 2.0
    planted_at = 941
    stream[planted_at : planted_at + QUERY] = (
        query + rng.normal(0, 0.05, QUERY)
    )

    # Profile the software search: time inside dtw vs total.
    in_distance = [0.0]

    class TimedSoftware(SoftwareBackend):
        def compute(self, function, p, q, **kwargs):
            start = time.perf_counter()
            try:
                return super().compute(function, p, q, **kwargs)
            finally:
                in_distance[0] += time.perf_counter() - start

    timed = TimedSoftware()

    start = time.perf_counter()
    result = subsequence_search(
        stream, query, band=BAND, use_lower_bounds=False,
        backend=timed,
    )
    brute_total = time.perf_counter() - start
    print(
        f"brute-force search: best window @{result.best_index} "
        f"(planted @{planted_at}), {result.dtw_calls} DTW calls"
    )
    print(
        f"  time in distance function: {in_distance[0] / brute_total:.1%}"
        f" of {brute_total * 1e3:.0f} ms  <- the paper's bottleneck"
    )

    # Lower-bound cascade (software state of the art the paper cites).
    in_distance[0] = 0.0
    start = time.perf_counter()
    pruned = subsequence_search(stream, query, band=BAND, backend=timed)
    pruned_total = time.perf_counter() - start
    print(
        f"with LB_Kim/LB_Keogh: {pruned.dtw_calls} DTW calls "
        f"({pruned.pruning_rate:.0%} pruned), "
        f"{pruned_total * 1e3:.0f} ms"
    )
    assert pruned.best_index == result.best_index

    # Accelerator projection: each surviving DTW costs analog settling
    # + conversion instead of a software DP.
    chip = DistanceAccelerator()
    probe = chip.compute(
        "dtw",
        stream[: QUERY],
        query,
        band=BAND,
        measure_time=True,
    )
    accelerated = pruned.dtw_calls * probe.total_time_s
    print(
        f"accelerator projection: {probe.total_time_s * 1e9:.0f} ns per"
        f" distance -> {accelerated * 1e6:.1f} us for the surviving "
        f"calls (vs {in_distance[0] * 1e3:.0f} ms in software)"
    )


if __name__ == "__main__":
    main()
