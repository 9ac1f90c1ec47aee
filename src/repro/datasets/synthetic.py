"""Synthetic UCR-style time series datasets.

The paper evaluates on three UCR archive datasets — Beef, Symbols and
OSU Leaf [13].  The archive is not redistributable and this environment
has no network access, so we generate *surrogates* with the same class
counts and series lengths, built the way UCR-like data behaves: each
class has a smooth band-limited prototype (a random Fourier series) and
instances are warped, scaled and noised copies of it.  Every generator
is seeded, so the whole evaluation is deterministic.

The evaluation only consumes (same-class, different-class) pairs
resampled to lengths 5-40 (Section 4.2: "For each algorithm module, we
randomly choose a pair of data from the same class and a pair from
different classes in one dataset"), which these surrogates exercise
identically to the originals.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from ..errors import DatasetError


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """Shape of one UCR dataset we mimic."""

    name: str
    n_classes: int
    length: int
    train_size: int
    test_size: int
    seed: int
    noise: float
    warp: float


#: The three datasets of Section 4.1, with their real class counts and
#: series lengths (train/test sizes follow the UCR archive).
UCR_SPECS: Dict[str, DatasetSpec] = {
    "Beef": DatasetSpec(
        name="Beef",
        n_classes=5,
        length=470,
        train_size=30,
        test_size=30,
        seed=101,
        noise=0.10,
        warp=0.02,
    ),
    "Symbols": DatasetSpec(
        name="Symbols",
        n_classes=6,
        length=398,
        train_size=25,
        test_size=995,
        seed=202,
        noise=0.12,
        warp=0.05,
    ),
    "OSULeaf": DatasetSpec(
        name="OSULeaf",
        n_classes=6,
        length=427,
        train_size=200,
        test_size=242,
        seed=303,
        noise=0.15,
        warp=0.04,
    ),
}


@dataclasses.dataclass
class Dataset:
    """A loaded dataset split into train/test, UCR-style.

    ``x`` arrays have shape (n_instances, length); labels are integer
    class ids starting at 0.
    """

    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def n_classes(self) -> int:
        return int(
            np.unique(np.concatenate([self.train_y, self.test_y])).size
        )

    @property
    def length(self) -> int:
        return int(self.train_x.shape[1])

    def instances_of(self, label: int, split: str = "train") -> np.ndarray:
        """All instances of one class from the chosen split."""
        if split == "train":
            x, y = self.train_x, self.train_y
        elif split == "test":
            x, y = self.test_x, self.test_y
        else:
            raise DatasetError(f"unknown split {split!r}")
        return x[y == label]


def _class_prototype(
    rng: np.random.Generator, length: int, harmonics: int = 6
) -> np.ndarray:
    """A smooth random band-limited prototype curve."""
    t = np.linspace(0.0, 1.0, length)
    proto = np.zeros(length)
    for k in range(1, harmonics + 1):
        amplitude = rng.normal(0.0, 1.0 / k)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        proto += amplitude * np.sin(2.0 * np.pi * k * t + phase)
    return proto


def _warp_time(
    rng: np.random.Generator, length: int, strength: float
) -> np.ndarray:
    """A monotone random warp of the [0, 1] time axis."""
    knots = 8
    deltas = rng.uniform(1.0 - strength * 5, 1.0 + strength * 5, knots)
    deltas = np.clip(deltas, 0.2, None)
    grid = np.concatenate([[0.0], np.cumsum(deltas)])
    grid /= grid[-1]
    base = np.linspace(0.0, 1.0, knots + 1)
    t = np.linspace(0.0, 1.0, length)
    return np.interp(t, base, grid)


def _generate_instance(
    rng: np.random.Generator,
    prototype: np.ndarray,
    noise: float,
    warp: float,
) -> np.ndarray:
    length = prototype.shape[0]
    warped_t = _warp_time(rng, length, warp)
    source_t = np.linspace(0.0, 1.0, length)
    warped = np.interp(warped_t, source_t, prototype)
    scale = rng.uniform(0.8, 1.2)
    offset = rng.normal(0.0, 0.1)
    return scale * warped + offset + rng.normal(0.0, noise, length)


def generate_dataset(spec: DatasetSpec) -> Dataset:
    """Generate the surrogate dataset for ``spec`` (deterministic)."""
    rng = np.random.default_rng(spec.seed)
    prototypes = [
        _class_prototype(rng, spec.length) for _ in range(spec.n_classes)
    ]

    def make_split(size: int) -> Tuple[np.ndarray, np.ndarray]:
        xs: List[np.ndarray] = []
        ys: List[int] = []
        for i in range(size):
            label = i % spec.n_classes
            xs.append(
                _generate_instance(
                    rng, prototypes[label], spec.noise, spec.warp
                )
            )
            ys.append(label)
        return np.array(xs), np.array(ys, dtype=np.intp)

    train_x, train_y = make_split(spec.train_size)
    test_x, test_y = make_split(spec.test_size)
    return Dataset(
        name=spec.name,
        train_x=train_x,
        train_y=train_y,
        test_x=test_x,
        test_y=test_y,
    )


def load_dataset(name: str) -> Dataset:
    """Load one of the three Section 4.1 datasets by name."""
    if name not in UCR_SPECS:
        raise DatasetError(
            f"unknown dataset {name!r}; available: "
            + ", ".join(sorted(UCR_SPECS))
        )
    return generate_dataset(UCR_SPECS[name])


def list_datasets() -> List[str]:
    """Names of the available datasets."""
    return sorted(UCR_SPECS)


def retrieval_workload(
    rng: np.random.Generator,
    n_queries: int,
    n_candidates: int,
    length: int,
    query_noise: float,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """A 1-NN retrieval workload: ``(queries, candidates)``.

    A bank of standard-normal templates, and probes that are each a
    randomly chosen template plus Gaussian noise of ``query_noise``.
    The fault campaign and the chaos harness serve this workload.
    """
    candidates = [rng.normal(size=length) for _ in range(n_candidates)]
    queries = []
    for _ in range(n_queries):
        base = candidates[int(rng.integers(n_candidates))]
        queries.append(base + rng.normal(0.0, query_noise, size=length))
    return queries, candidates
