"""Mining-accuracy impact of analog error (extension A6).

Section 4.2 claims the accelerator's error "can be regarded as a bias,
which has no significant influence on the relation of results" — i.e.
mining *decisions* survive the analog noise.  This harness tests that
end to end: 1-NN classification on the three datasets with software
distances vs accelerated distances, reporting both accuracies and the
fraction of individual decisions that flipped.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..accelerator import DistanceAccelerator
from ..backends import AcceleratorBackend
from ..datasets import formalise, load_dataset
from ..mining import KnnClassifier
from .fig5 import _distance_kwargs


@dataclasses.dataclass
class AccuracyRow:
    """One (dataset, function) decision-fidelity comparison."""

    dataset: str
    function: str
    software_accuracy: float
    hardware_accuracy: float
    decision_agreement: float
    n_test: int


@dataclasses.dataclass
class AccuracyReport:
    rows: List[AccuracyRow]

    def table(self) -> str:
        lines = [
            f"{'dataset':<9} {'function':<10} {'sw acc':>7} "
            f"{'hw acc':>7} {'agree':>7} {'n':>4}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.dataset:<9} {r.function:<10} "
                f"{r.software_accuracy:>7.0%} "
                f"{r.hardware_accuracy:>7.0%} "
                f"{r.decision_agreement:>7.0%} {r.n_test:>4}"
            )
        return "\n".join(lines)

    @property
    def worst_agreement(self) -> float:
        return min(r.decision_agreement for r in self.rows)


def run_accuracy_comparison(
    functions: Sequence[str] = ("dtw", "manhattan", "hamming"),
    datasets: Sequence[str] = ("Beef", "Symbols", "OSULeaf"),
    length: int = 16,
    train_per_dataset: int = 12,
    test_per_dataset: int = 8,
    accelerator: Optional[DistanceAccelerator] = None,
) -> AccuracyReport:
    """1-NN classification: software vs accelerator distances."""
    if accelerator is None:
        accelerator = DistanceAccelerator(quantise_io=False)
    rows: List[AccuracyRow] = []
    for dataset_name in datasets:
        data = load_dataset(dataset_name)
        train_x = [
            formalise(s, length)
            for s in data.train_x[:train_per_dataset]
        ]
        train_y = data.train_y[:train_per_dataset]
        test_x = [
            formalise(s, length) for s in data.test_x[:test_per_dataset]
        ]
        test_y = data.test_y[:test_per_dataset]
        for function in functions:
            kwargs = _distance_kwargs(function)
            software = KnnClassifier(
                distance=function, distance_kwargs=kwargs
            ).fit(train_x, train_y)
            hardware = KnnClassifier(
                distance=function,
                distance_kwargs=kwargs,
                backend=AcceleratorBackend(accelerator),
            ).fit(train_x, train_y)
            sw_pred = software.predict(test_x)
            hw_pred = hardware.predict(test_x)
            rows.append(
                AccuracyRow(
                    dataset=dataset_name,
                    function=function,
                    software_accuracy=float(
                        np.mean(sw_pred == test_y)
                    ),
                    hardware_accuracy=float(
                        np.mean(hw_pred == test_y)
                    ),
                    decision_agreement=float(
                        np.mean(sw_pred == hw_pred)
                    ),
                    n_test=len(test_x),
                )
            )
    return AccuracyReport(rows=rows)
