"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compute_defaults(self):
        args = build_parser().parse_args(["compute", "dtw"])
        assert args.function == "dtw"
        assert args.length == 16
        assert not args.ideal

    def test_unknown_function_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compute", "cosine"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Beef" in out and "Symbols" in out and "OSULeaf" in out

    def test_compute_ideal_matches_software(self, capsys):
        assert main(
            ["compute", "manhattan", "--length", "8", "--ideal"]
        ) == 0
        out = capsys.readouterr().out
        software = float(out.split("software:")[1].split()[0])
        hardware = float(out.split("accelerator:")[1].split()[0])
        assert hardware == pytest.approx(software, abs=1e-6)

    def test_compute_reports_timing(self, capsys):
        assert main(["compute", "hamming", "--length", "6"]) == 0
        out = capsys.readouterr().out
        assert "convergence:" in out
        assert "ns" in out

    def test_power_table(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "0.58" in out  # the paper's DTW total

    def test_fig5_errors_only(self, capsys):
        assert main(
            [
                "fig5",
                "--lengths", "6",
                "--datasets", "Beef",
                "--no-time",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "manhattan" in out


class TestBenchOutput:
    """``--smoke`` writes ``BENCH_smoke.json``; the recorded full-run
    figures in ``BENCH_engine.json`` are only rewritten by full runs."""

    @pytest.fixture
    def fake_bench(self, monkeypatch, tmp_path):
        import repro.eval
        from repro.eval.bench import BenchReport

        def run_engine_bench(smoke, repeats, seed):
            return BenchReport(
                cases=[],
                template_cache_default=True,
                levelized_default=True,
                smoke=smoke,
                seed=seed,
            )

        monkeypatch.setattr(repro.eval, "run_engine_bench", run_engine_bench)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_smoke_leaves_the_full_run_file_alone(self, fake_bench):
        assert main(["bench", "--smoke", "--json"]) == 0
        assert sorted(p.name for p in fake_bench.iterdir()) == [
            "BENCH_smoke.json"
        ]

    def test_full_run_writes_bench_engine(self, fake_bench):
        assert main(["bench", "--json"]) == 0
        assert sorted(p.name for p in fake_bench.iterdir()) == [
            "BENCH_engine.json"
        ]

    def test_out_overrides_both(self, fake_bench):
        assert main(["bench", "--smoke", "--json", "--out", "x.json"]) == 0
        assert sorted(p.name for p in fake_bench.iterdir()) == ["x.json"]
