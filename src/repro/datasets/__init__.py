"""UCR-style synthetic datasets and preprocessing (Section 4.1)."""

from .preprocessing import (
    evaluation_lengths,
    formalise,
    resample,
    sample_pairs,
    z_normalise,
)
from .synthetic import (
    Dataset,
    DatasetSpec,
    UCR_SPECS,
    generate_dataset,
    list_datasets,
    load_dataset,
    retrieval_workload,
)

__all__ = [
    "Dataset",
    "DatasetSpec",
    "UCR_SPECS",
    "evaluation_lengths",
    "formalise",
    "generate_dataset",
    "list_datasets",
    "load_dataset",
    "resample",
    "retrieval_workload",
    "sample_pairs",
    "z_normalise",
]
