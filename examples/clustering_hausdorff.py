"""Clustering UCR-style series with k-medoids over accelerator
distances (Hausdorff and DTW).

Clustering is the second of the paper's three mining tasks.  This
example clusters the synthetic Symbols dataset with k-medoids using
(a) software DTW, (b) accelerator DTW, and (c) accelerator Hausdorff —
showing the accelerator as a drop-in distance oracle and how distance
choice changes cluster quality.

Run:  python examples/clustering_hausdorff.py
"""

import numpy as np

from repro.accelerator import DistanceAccelerator
from repro.backends import AcceleratorBackend
from repro.datasets import formalise, load_dataset
from repro.mining import cluster_series, rand_index

LENGTH = 20
PER_CLASS = 4
N_CLASSES = 3


def main() -> None:
    data = load_dataset("Symbols")
    series, truth = [], []
    for label in range(N_CLASSES):
        pool = data.instances_of(label, split="train")
        for instance in pool[:PER_CLASS]:
            series.append(formalise(instance, LENGTH))
            truth.append(label)
    truth = np.array(truth)

    chip = AcceleratorBackend(DistanceAccelerator())
    runs = {
        "software DTW": dict(distance="dtw", band=0.1),
        "accelerator DTW": dict(distance="dtw", band=0.1, backend=chip),
        "accelerator HauD": dict(distance="hausdorff", backend=chip),
    }

    print(
        f"clustering {len(series)} series "
        f"({N_CLASSES} classes x {PER_CLASS}) with k-medoids\n"
    )
    print(f"{'backend':<18} {'rand index':>11} {'cost':>9} "
          f"{'iters':>6}")
    for name, kwargs in runs.items():
        result = cluster_series(series, N_CLASSES, seed=1, **kwargs)
        print(
            f"{name:<18} {rand_index(result.labels, truth):>11.2f} "
            f"{result.cost:>9.2f} {result.iterations:>6}"
        )


if __name__ == "__main__":
    main()
