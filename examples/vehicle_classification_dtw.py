"""Smart-city workload: vehicle classification with DTW 1-NN.

The paper's introduction motivates the accelerator with a Google-style
data center serving mixed applications; the smart-city side "uses DTW
for vehicle classification" (Weng et al. [31]).  This example builds
axle-signature-like time series for three vehicle classes, classifies
them with 1-NN DTW in software and on the accelerator, and compares
accuracy and (modelled) latency.

Run:  python examples/vehicle_classification_dtw.py
"""

import time

import numpy as np

from repro.accelerator import DistanceAccelerator
from repro.backends import AcceleratorBackend
from repro.datasets import z_normalise
from repro.mining import KnnClassifier

CLASSES = ("car", "van", "truck")
LENGTH = 24


def vehicle_signature(kind: str, rng: np.random.Generator) -> np.ndarray:
    """A magnetic/axle-sensor-like signature: one bump per axle."""
    t = np.linspace(0.0, 1.0, LENGTH)
    axles = {"car": (0.3, 0.7), "van": (0.25, 0.55, 0.8),
             "truck": (0.2, 0.4, 0.6, 0.85)}[kind]
    speed = rng.uniform(0.9, 1.1)  # time warp between instances
    signal = np.zeros(LENGTH)
    for position in axles:
        signal += np.exp(-((t - position * speed) ** 2) / 0.004)
    return z_normalise(signal + rng.normal(0.0, 0.08, LENGTH))


def make_split(rng: np.random.Generator, per_class: int):
    x, y = [], []
    for label, kind in enumerate(CLASSES):
        for _ in range(per_class):
            x.append(vehicle_signature(kind, rng))
            y.append(label)
    return x, np.array(y)


def main() -> None:
    rng = np.random.default_rng(7)
    train_x, train_y = make_split(rng, per_class=6)
    test_x, test_y = make_split(rng, per_class=4)

    band = 0.1  # Sakoe-Chiba, tolerate the speed variation

    software = KnnClassifier(
        distance="dtw", distance_kwargs={"band": band}
    ).fit(train_x, train_y)
    start = time.perf_counter()
    sw_acc = software.score(test_x, test_y)
    sw_wall = time.perf_counter() - start

    chip = DistanceAccelerator()
    hardware = KnnClassifier(
        distance="dtw",
        distance_kwargs={"band": band},
        backend=AcceleratorBackend(chip),
    ).fit(train_x, train_y)
    hw_acc = hardware.score(test_x, test_y)

    # Modelled on-chip latency for one query (all train comparisons).
    probe = chip.compute(
        "dtw", test_x[0], train_x[0], band=band, measure_time=True
    )
    per_compare = probe.total_time_s
    print(f"classes: {CLASSES}, train {len(train_x)}, test {len(test_x)}")
    print(f"1-NN DTW accuracy  software:    {sw_acc:.0%}")
    print(f"1-NN DTW accuracy  accelerator: {hw_acc:.0%}")
    print(
        f"modelled accelerator latency per comparison: "
        f"{per_compare * 1e9:.0f} ns "
        f"({len(train_x) * per_compare * 1e6:.2f} us per query)"
    )
    print(f"software wall-clock for the test set: {sw_wall * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
