"""Tests for the per-figure experiment harness (quick settings)."""

import numpy as np
import pytest

from repro.eval import (
    EARLY_FUNCTIONS,
    growth_ratio,
    linearity_score,
    run_band_sweep,
    run_fig5,
    run_fig6a,
    run_fig6b,
    run_power_table,
    run_resolution_sweep,
)


class TestFig5Harness:
    def test_error_only_run(self):
        result = run_fig5(
            functions=("manhattan", "hamming"),
            lengths=(6, 12),
            datasets=("Beef",),
            measure_time=False,
        )
        assert len(result.points) == 4
        by_key = {
            (p.function, p.length): p for p in result.points
        }
        for point in result.points:
            assert point.n_runs == 2
        # MD error is bias-like and small; HamD can lose a whole count
        # to a comparator-offset flip on a borderline element, which is
        # a large *relative* error on small counts.
        assert by_key[("manhattan", 6)].mean_relative_error < 0.05
        assert by_key[("manhattan", 12)].mean_relative_error < 0.05
        assert by_key[("hamming", 6)].mean_relative_error < 0.6
        assert by_key[("hamming", 12)].mean_relative_error < 0.6

    def test_series_accessor(self):
        result = run_fig5(
            functions=("manhattan",),
            lengths=(6, 12),
            datasets=("Beef",),
            measure_time=False,
        )
        lengths, times, errors = result.series("manhattan")
        assert lengths == [6, 12]
        assert len(errors) == 2

    def test_table_renders(self):
        result = run_fig5(
            functions=("manhattan",),
            lengths=(6,),
            datasets=("Beef",),
            measure_time=False,
        )
        text = result.table()
        assert "manhattan" in text
        assert "rel. error" in text


class TestFig5Shapes:
    def test_linearity_and_hausdorff_flatness(self):
        # The paper's two timing claims at reduced scale.
        result = run_fig5(
            functions=("dtw", "hausdorff"),
            lengths=(6, 12, 18, 24),
            datasets=("Symbols",),
            measure_time=True,
        )
        _, dtw_times, _ = result.series("dtw")
        _, haud_times, _ = result.series("hausdorff")
        assert linearity_score((6, 12, 18, 24), dtw_times) > 0.95
        assert growth_ratio(dtw_times) > 2.0
        assert growth_ratio(haud_times) < 1.8


class TestHelpers:
    def test_linearity_score_perfect_line(self):
        assert linearity_score([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0)

    def test_linearity_score_quadratic_lower(self):
        xs = list(range(1, 10))
        quad = [x**2 for x in xs]
        line = [2 * x for x in xs]
        assert linearity_score(xs, quad) < linearity_score(xs, line) + 1e-9

    def test_growth_ratio(self):
        assert growth_ratio([1.0, 4.0]) == pytest.approx(4.0)
        assert growth_ratio([2.0]) == 1.0


class TestFig6Harness:
    def test_fig6a_quick(self):
        result = run_fig6a(
            functions=("dtw", "hamming"), length=10
        )
        assert len(result.rows) == 2
        by_name = {r.function: r for r in result.rows}
        assert by_name["hamming"].early_determination
        assert not by_name["dtw"].early_determination
        assert by_name["hamming"].speedup > by_name["dtw"].speedup
        lo, hi = result.speedup_range
        assert lo > 1.0

    def test_fig6b_quick_speedup_grows_with_length(self):
        result = run_fig6b(
            functions=("dtw",), lengths=(8, 16)
        )
        _, _, speedups = result.series("dtw")
        assert speedups[1] > speedups[0]

    def test_fig6b_linear_functions_smaller_speedup(self):
        # Asymptotics need room: at length 32 the O(n^2) CPU cost
        # dominates the call overhead.
        result = run_fig6b(
            functions=("dtw", "manhattan"), lengths=(32,)
        )
        by_name = {p.function: p for p in result.points}
        assert (
            by_name["manhattan"].speedup_vs_model
            < by_name["dtw"].speedup_vs_model
        )


class TestPowerTable:
    def test_defaults_match_paper(self):
        table = run_power_table()
        for row in table.rows:
            assert row.power_deviation < 0.02

    def test_energy_range_spans_orders_of_magnitude(self):
        table = run_power_table()
        lo, hi = table.energy_range
        assert lo > 10.0
        assert hi > 1000.0

    def test_custom_speedups_respected(self):
        table = run_power_table(speedups={"dtw": 3.5})
        dtw_row = next(r for r in table.rows if r.function == "dtw")
        assert dtw_row.energy_improvement == pytest.approx(
            28.7, rel=0.05
        )


class TestSweeps:
    def test_band_sweep_wider_band_smaller_gap(self):
        rows = run_band_sweep(
            fractions=(0.1, 1.0), length=12, n_pairs=1
        )
        assert rows[0].mean_abs_band_gap >= rows[1].mean_abs_band_gap
        assert rows[1].mean_abs_band_gap == pytest.approx(0.0, abs=1e-9)
        assert rows[0].active_pes_at_128 < rows[1].active_pes_at_128

    def test_resolution_sweep_runs(self):
        rows = run_resolution_sweep(
            resolutions_mv=(10.0, 20.0), length=10, n_pairs=1
        )
        assert len(rows) == 2
        for row in rows:
            assert row.mean_relative_error < 0.2


class TestEngineBenchFloors:
    @staticmethod
    def _report(speedups):
        from repro.eval.bench import BenchCase, BenchReport

        cases = [
            BenchCase(
                name=name,
                fast_s=1.0,
                baseline_s=speedup,
                queries_per_s=1.0,
                baseline_queries_per_s=1.0 / speedup,
                speedup=speedup,
                equivalent=True,
                repeats=1,
            )
            for name, speedup in speedups.items()
        ]
        return BenchReport(
            cases=cases,
            template_cache_default=True,
            levelized_default=True,
            smoke=True,
            seed=0,
        )

    def test_every_floored_case_must_meet_its_floor(self):
        from repro.eval.bench import SPEEDUP_FLOOR

        passing = self._report(
            {name: 2 * floor for name, floor in SPEEDUP_FLOOR.items()}
        )
        assert passing.ok and passing.below_floor == []
        slow = dict(SPEEDUP_FLOOR, pool_fanout=0.5)
        failing = self._report(slow)
        assert not failing.ok
        assert failing.below_floor == ["pool_fanout"]
        assert failing.as_dict()["below_floor"] == ["pool_fanout"]
        assert "below speedup floor: pool_fanout" in failing.table()
