"""Tests for early determination (Section 3.3(1), Fig. 3)."""

import dataclasses

import numpy as np
import pytest

from repro.accelerator import (
    EARLY_FRACTION,
    DistanceAccelerator,
    early_nearest_neighbour,
    early_rank,
)
from repro.accelerator.params import PAPER_PARAMS
from repro.errors import ConfigurationError
from repro.faults import DriftFault, FaultInjector, StuckAtFault

SMALL = dataclasses.replace(PAPER_PARAMS, array_rows=12, array_cols=12)


class TestEarlyRank:
    def test_fig3_ranking_preserved_at_early_point(self, rng):
        # Three candidates at clearly separated distances: the ordering
        # at t_conv/10 must equal the converged ordering.
        query = rng.normal(size=10)
        near = query + rng.normal(0, 0.05, 10)
        mid = query + rng.normal(0, 0.8, 10)
        far = query + rng.normal(0, 2.5, 10)
        decision = early_rank(query, [far, near, mid])
        assert decision.consistent
        assert decision.final_ranking[0] == 1  # `near` wins
        assert decision.early_ranking == decision.final_ranking

    def test_early_point_is_tenth_of_convergence(self, rng):
        query = rng.normal(size=8)
        cands = [query + rng.normal(0, s, 8) for s in (0.1, 1.0)]
        decision = early_rank(query, cands)
        assert decision.early_time_s == pytest.approx(
            EARLY_FRACTION * decision.full_time_s, rel=0.15
        )
        assert decision.speedup == pytest.approx(10.0, rel=0.2)

    def test_final_values_match_distance_ordering(self, rng):
        query = rng.normal(size=10)
        cands = [query + rng.normal(0, s, 10) for s in (2.0, 0.1, 0.7)]
        decision = early_rank(query, cands)
        from repro.distances import manhattan

        true_order = list(
            np.argsort([manhattan(query, c) for c in cands])
        )
        assert decision.final_ranking == true_order

    def test_hamming_variant(self, rng):
        query = rng.normal(size=8)
        same = query.copy()
        diff = query + 3.0
        decision = early_rank(
            query, [diff, same], function="hamming", threshold=0.5
        )
        assert decision.final_ranking[0] == 1
        assert decision.consistent

    def test_matrix_function_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="row structure"):
            early_rank(rng.normal(size=4), [rng.normal(size=4)], function="dtw")

    def test_empty_candidates_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            early_rank(rng.normal(size=4), [])

    def test_candidates_as_2d_ndarray(self, rng):
        # Regression: `if not candidates:` raised "truth value of an
        # array is ambiguous" whenever the candidate bank arrived as a
        # 2-D ndarray instead of a list (the RPR001 bug class).
        query = rng.normal(size=6)
        bank = np.stack([query + rng.normal(0, s, 6) for s in (0.1, 2.0)])
        decision = early_rank(query, bank)
        assert decision.final_ranking[0] == 0

    def test_empty_ndarray_candidates_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="candidate"):
            early_rank(rng.normal(size=4), np.empty((0, 4)))

    def test_faulted_chip_ranks_like_its_batch(self, rng):
        # Early determination settles the chip's own batch template, so
        # a faulted chip's converged ranking is its batch ranking.
        chip = DistanceAccelerator(params=SMALL, quantise_io=False)
        FaultInjector(
            [
                StuckAtFault(rate=0.05),
                DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003),
            ],
            seed=3,
        ).inject(chip)
        query = rng.normal(size=10)
        cands = [query + rng.normal(0, s, 10) for s in (1.5, 0.1, 0.7, 3.0)]
        decision = early_rank(query, cands, accelerator=chip)
        values = chip.batch("manhattan", query, cands).values
        assert decision.final_ranking == list(np.argsort(values))
        settled = [chip.params.decode(v) for v in decision.final_values]
        assert settled == pytest.approx(values, rel=1e-9)

    def test_sequence_longer_than_a_row_rejected(self, rng):
        chip = DistanceAccelerator(params=SMALL, quantise_io=False)
        with pytest.raises(ConfigurationError, match="fit one array row"):
            early_rank(
                rng.normal(size=13), [rng.normal(size=13)], accelerator=chip
            )

    def test_bad_fraction_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            early_rank(
                rng.normal(size=4),
                [rng.normal(size=4)],
                early_fraction=0.0,
            )


class TestEarlyNearestNeighbour:
    def test_picks_nearest(self, rng):
        query = rng.normal(size=12)
        candidates = [
            query + rng.normal(0, 1.5, 12),
            query + rng.normal(0, 0.05, 12),
            query + rng.normal(0, 0.6, 12),
        ]
        assert early_nearest_neighbour(query, candidates) == 1
