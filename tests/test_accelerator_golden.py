"""Characterization test: every accelerator entry point, pinned to a fixture.

One seeded call sequence drives all six functions through ``compute``
(fitting, tiled DP, tiled Hausdorff and multi-segment row shapes on a
12x12 chip), ``compute_many`` (uniform and mixed shapes), ``batch`` and
``batch_pairs``, with weighted and unweighted inputs, ``threshold``,
``band``, ``paper_errata`` and ``measure_time``.  The sequence runs on
a healthy chip, a stuck-at plus drift faulted chip, the same chip after
recalibration, and a read-disturbed chip (whose noise stream advances
from call to call).  Every result field is recorded bit-exactly
(``float.hex``) together with ``template_cache_info()`` after each
call, and must match ``accelerator_golden.json``.

Regenerate the fixture (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_accelerator_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.accelerator import DistanceAccelerator
from repro.accelerator.params import PAPER_PARAMS
from repro.faults import (
    DriftFault,
    FaultInjector,
    ReadDisturbFault,
    StuckAtFault,
    recalibrate,
)

FIXTURE = pathlib.Path(__file__).with_name("accelerator_golden.json")
SEED = 2017
PARAMS = dataclasses.replace(PAPER_PARAMS, array_rows=12, array_cols=12)
#: Fits the 12x12 array / needs matrix tiles / needs two row segments.
FIT, TILED, LONG_ROW = 6, 16, 20
MATRIX = ("dtw", "lcs", "edit", "hausdorff")
ROW = ("hamming", "manhattan")
FAULTS = (
    StuckAtFault(rate=0.05),
    DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003),
)


def _healthy():
    return DistanceAccelerator(params=PARAMS)


def _faulted():
    chip = _healthy()
    FaultInjector(FAULTS, seed=3).inject(chip)
    return chip


def _recalibrated():
    chip = _faulted()
    recalibrate(chip)
    return chip


def _read_disturbed():
    chip = _healthy()
    FaultInjector(
        FAULTS + (ReadDisturbFault(sigma=0.01),), seed=5
    ).inject(chip)
    return chip


CHIPS = {
    "healthy": _healthy,
    "faulted": _faulted,
    "recalibrated": _recalibrated,
    "read_disturbed": _read_disturbed,
}


def _calls(rng: np.random.Generator):
    """``(method, args, kwargs)`` of the golden sequence."""

    def series(n):
        return rng.normal(size=n)

    def symbols(n):
        return rng.integers(0, 4, size=n).astype(float)

    calls = []
    for function in MATRIX + ROW:
        draw = symbols if function in ("hamming", "lcs", "edit") else series
        long = LONG_ROW if function in ROW else TILED
        for n in (FIT, long):
            calls.append(("compute", (function, draw(n), draw(n)), {}))
        p, q = draw(FIT), draw(FIT)
        if function in ROW:
            weights = rng.uniform(0.5, 1.5, size=FIT)
        else:
            weights = rng.uniform(0.5, 1.5, size=(FIT, FIT))
        calls.append(("compute", (function, p, q), {"weights": weights}))
        if function != "hamming":
            calls.append(
                ("compute", (function, p, q), {"measure_time": True})
            )
        # Same-shape pairs (one vectorized settle) and mixed shapes
        # (the sequential fallback).
        uniform = [(draw(FIT), draw(FIT)) for _ in range(3)]
        calls.append(("compute_many", (function, uniform), {}))
        calls.append(
            (
                "compute_many",
                (function, uniform),
                {"weights": weights},
            )
        )
        mixed = [(draw(FIT), draw(FIT)), (draw(FIT + 2), draw(FIT + 2))]
        calls.append(("compute_many", (function, mixed), {}))
    calls.append(
        ("compute", ("dtw", series(14), series(13)),
         {"measure_time": True})
    )
    calls.append(
        ("compute", ("hausdorff", series(TILED), series(TILED + 3)),
         {"measure_time": True})
    )
    calls.append(
        ("compute", ("manhattan", series(14), series(14)),
         {"measure_time": True})
    )
    calls.append(
        ("compute", ("dtw", series(FIT + 1), series(FIT)), {"band": 0.5})
    )
    calls.append(
        ("compute_many", ("dtw", [(series(FIT), series(FIT))] * 2),
         {"band": 0.5})
    )
    calls.append(
        ("compute", ("dtw", series(TILED), series(FIT + 2)), {})
    )
    for function in ("lcs", "edit", "hamming"):
        calls.append(
            ("compute", (function, symbols(FIT), symbols(FIT)),
             {"threshold": 1.0})
        )
    calls.append(
        ("compute_many",
         ("lcs", [(symbols(FIT), symbols(FIT)) for _ in range(2)]),
         {"threshold": 1.0})
    )
    calls.append(
        ("compute", ("lcs", symbols(TILED), symbols(TILED)),
         {"threshold": 1.0})
    )
    for n in (FIT, TILED):
        calls.append(
            ("compute", ("edit", symbols(n), symbols(n)),
             {"paper_errata": True})
        )
    for function in ROW:
        query = symbols(FIT)
        candidates = [symbols(FIT) for _ in range(4)]
        calls.append(("batch", (function, query, candidates), {}))
        # Same structure, fresh inputs: a template-cache hit.
        calls.append(
            ("batch", (function, symbols(FIT),
                       [symbols(FIT) for _ in candidates]), {})
        )
        calls.append(
            ("batch", (function, query, candidates),
             {"weights": rng.uniform(0.5, 1.5, size=FIT),
              "measure_time": function == "manhattan"})
        )
        pairs = [(symbols(n), symbols(n)) for n in (FIT, FIT, FIT + 3)]
        calls.append(("batch_pairs", (function, pairs), {}))
        calls.append(
            ("batch_pairs", (function, pairs),
             {"weights": [rng.uniform(0.5, 1.5, size=len(p))
                          for p, _ in pairs],
              "threshold": 0.5,
              "measure_time": function == "manhattan"})
        )
    return calls


def _exact(value):
    """JSON-able, bit-exact rendering of one result field."""
    if isinstance(value, np.ndarray):
        return [_exact(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def _record(result):
    fields = {
        f.name: _exact(getattr(result, f.name))
        for f in dataclasses.fields(result)
    }
    fields["total_time_s"] = _exact(result.total_time_s)
    return fields


#: Chips that also run the (slow) ``measure_time`` calls.
TIMED = ("healthy", "faulted")


def _run_chip(name: str):
    chip = CHIPS[name]()
    observed = []
    for method, args, kwargs in _calls(np.random.default_rng(SEED)):
        if kwargs.get("measure_time") and name not in TIMED:
            continue
        out = getattr(chip, method)(*args, **kwargs)
        results = out if isinstance(out, list) else [out]
        observed.append(
            {
                "call": f"{method}({args[0]!r}, {sorted(kwargs)})",
                "results": [_record(r) for r in results],
                "cache": chip.template_cache_info(),
            }
        )
    return observed


def _golden_run():
    return {name: _run_chip(name) for name in CHIPS}


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("chip", sorted(CHIPS))
def test_chip_matches_fixture(expected, chip):
    observed = _run_chip(chip)
    golden = expected[chip]
    assert len(observed) == len(golden)
    for got, want in zip(observed, golden):
        assert got == want, want["call"]


def test_sequence_covers_every_path(expected):
    healthy = expected["healthy"]
    results = [r for entry in healthy for r in entry["results"]]
    tiles = {r["function"]: 0 for r in results}
    for r in results:
        tiles[r["function"]] = max(
            tiles[r["function"]], r.get("tiles", 0)
        )
    # Every compute-able function took a multi-tile / multi-segment
    # path as well as the one-tile path.
    assert all(count > 1 for count in tiles.values()), tiles
    assert any(
        r["convergence_time_s"] is not None and "tiles" in r
        for r in results
    )
    assert any(
        r["convergence_time_s"] is not None and "passes" in r
        for r in results
    )
    assert any(
        "passes" in r and r["template_cached"] for r in results
    )
    disturbed = expected["read_disturbed"]
    assert all(not entry["cache"]["active"] for entry in disturbed)
    assert expected["faulted"] != expected["recalibrated"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_golden_run(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
