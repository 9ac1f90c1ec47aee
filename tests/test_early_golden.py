"""Characterization test: early determination pinned to a fixture.

One seeded sweep drives :func:`repro.accelerator.early_rank` over both
row-structure functions, K = 1..6 candidates, unweighted and weighted
inputs, a Hamming threshold, and candidate banks given as a list and
as a 2-D ndarray.  Every :class:`~repro.accelerator.EarlyDecision`
field is recorded bit-exactly (``float.hex``) and must match
``early_golden.json``.

Regenerate the fixture (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_early_golden.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.accelerator import early_rank

FIXTURE = pathlib.Path(__file__).with_name("early_golden.json")
SEED = 2017
LENGTH = 8


def _cases():
    """``(label, query, candidates, kwargs)`` of the sweep, seeded."""
    rng = np.random.default_rng(SEED)
    for function in ("manhattan", "hamming"):
        for k in range(1, 7):
            query = rng.normal(size=LENGTH)
            bank = np.stack(
                [
                    query + rng.normal(0.0, 0.1 + 0.5 * j, LENGTH)
                    for j in range(k)
                ]
            )
            kwargs = {"function": function}
            if k % 2 == 0:
                kwargs["weights"] = rng.uniform(0.5, 1.5, LENGTH)
            if function == "hamming":
                kwargs["threshold"] = 0.5
            # Odd K passes the bank as a 2-D ndarray, even K as a list.
            candidates = bank if k % 2 else list(bank)
            yield f"{function}-k{k}", query, candidates, kwargs


def _record(decision):
    return {
        "early_ranking": [int(i) for i in decision.early_ranking],
        "final_ranking": [int(i) for i in decision.final_ranking],
        "early_time_s": float(decision.early_time_s).hex(),
        "full_time_s": float(decision.full_time_s).hex(),
        "early_values": [float(v).hex() for v in decision.early_values],
        "final_values": [float(v).hex() for v in decision.final_values],
    }


def _capture():
    return {
        label: _record(early_rank(query, candidates, **kwargs))
        for label, query, candidates, kwargs in _cases()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "label,query,candidates,kwargs",
    list(_cases()),
    ids=[case[0] for case in _cases()],
)
def test_early_decision_matches_fixture(
    golden, label, query, candidates, kwargs
):
    decision = early_rank(query, candidates, accelerator=None, **kwargs)
    assert _record(decision) == golden[label]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
