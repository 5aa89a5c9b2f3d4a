"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_point_defaults(self):
        args = build_parser().parse_args(["point"])
        assert args.structure == "gfsl"
        assert args.range == 1_000_000


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "invariants" in out

    def test_point_gfsl(self, capsys):
        assert main(["point", "--range", "5000", "--ops", "200"]) == 0
        out = capsys.readouterr().out
        assert "MOPS" in out and "GFSL-32" in out

    def test_point_mc(self, capsys):
        assert main(["point", "--structure", "mc", "--range", "5000",
                     "--ops", "150"]) == 0
        assert "M&C" in capsys.readouterr().out

    def test_point_mc_oom(self, capsys):
        assert main(["point", "--structure", "mc", "--range", "50000000",
                     "--ops", "10"]) == 0
        assert "OOM" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,cause", [
        (["--shards", "0"], "need at least one shard"),
        (["--inserts", "80", "--deletes", "40"],
         "--inserts 80 plus --deletes 40 exceed 100%"),
        (["--ops", "0"], "--ops must be at least 1 (got 0)")])
    def test_point_misconfiguration_is_a_one_line_usage_error(
            self, capsys, flags, cause):
        assert main(["point", "--range", "500", "--ops", "10", *flags]) == 2
        assert capsys.readouterr().err == f"point: {cause}\n"

    def test_stress_clean(self, capsys):
        assert main(["stress", "--range", "800", "--ops", "250",
                     "--seed", "3"]) == 0
        assert "stress OK" in capsys.readouterr().out

    def test_table(self, capsys):
        assert main(["table", "5.1", "--scale", "smoke"]) == 0
        assert "warps/blk" in capsys.readouterr().out

    def test_table_prints_the_bench_rendering(self, capsys):
        """``repro table`` prints what ``bench_table_5_1.py`` commits as
        ``table_5_1.txt`` at the same scale."""
        from repro.experiments import SCALES, tables
        assert main(["table", "5.1", "--scale", "smoke"]) == 0
        assert capsys.readouterr().out == \
            tables.render("5.1", SCALES["smoke"]) + "\n"

    def test_table_unknown(self, capsys):
        assert main(["table", "9.9"]) == 2

    def test_figure_unknown(self, capsys):
        assert main(["figure", "9.9"]) == 2

    def test_figure_5_1(self, capsys):
        assert main(["figure", "5.1", "--scale", "smoke"]) == 0
        assert "GFSL-32" in capsys.readouterr().out

    def test_figure_prints_the_bench_rendering(self, capsys):
        """``repro figure`` prints what ``bench_fig_5_2.py`` commits as
        ``fig_5_2.txt`` at the same scale."""
        from repro.experiments import SCALES, figures
        assert main(["figure", "5.2", "--scale", "smoke"]) == 0
        assert capsys.readouterr().out == \
            figures.render("5.2", SCALES["smoke"]) + "\n"
