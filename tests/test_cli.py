"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main
from repro.db import io
from repro.db.transaction_db import TransactionDatabase


@pytest.fixture()
def basket_file(tmp_path):
    path = tmp_path / "toy.dat"
    db = TransactionDatabase(
        [[1, 2, 3], [1, 2, 3], [1, 2], [3, 4], [1, 2, 3]]
    )
    io.save(db, path)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_flags(self):
        args = build_parser().parse_args(
            ["mine", "db.dat", "--min-support", "1.5",
             "--algorithm", "apriori", "--engine", "hashtree"]
        )
        assert args.min_support == 1.5
        assert args.algorithm == "apriori"
        assert args.engine == "hashtree"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mine", "db.dat", "--min-support", "1", "--algorithm", "eclat"]
            )


class TestGenerate:
    def test_generate_writes_database(self, tmp_path, capsys):
        out = tmp_path / "gen.dat"
        code = main([
            "generate", "T5.I2.D100K", "--transactions", "200",
            "--items", "50", "--patterns", "10", "--out", str(out),
        ])
        assert code == 0
        db = io.load(out)
        assert len(db) == 200
        assert "200 transactions" in capsys.readouterr().out


class TestMine:
    @pytest.mark.parametrize(
        "algorithm", ["pincer", "pincer-pure", "apriori", "topdown"]
    )
    def test_mine_all_algorithms(self, basket_file, capsys, algorithm):
        code = main([
            "mine", basket_file, "--min-support", "40",
            "--algorithm", algorithm,
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "maximum frequent set" in output
        assert "{1, 2, 3}" in output

    def test_show_passes(self, basket_file, capsys):
        main(["mine", basket_file, "--min-support", "40", "--show-passes"])
        assert "pass 1:" in capsys.readouterr().out


class TestRules:
    def test_rules_output(self, basket_file, capsys):
        code = main([
            "rules", basket_file, "--min-support", "40",
            "--min-confidence", "75", "--depth", "3",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "rules (minconf 75" in output
        assert "->" in output

    def test_top_limits_rules(self, basket_file, capsys):
        main([
            "rules", basket_file, "--min-support", "40",
            "--min-confidence", "10", "--top", "1",
        ])
        output = capsys.readouterr().out
        assert output.count("->") == 1


class TestKeys:
    def test_keys_from_csv_with_header(self, tmp_path, capsys):
        path = tmp_path / "relation.csv"
        path.write_text("id,name,dept\n1,a,x\n2,a,x\n3,b,y\n")
        assert main(["keys", str(path)]) == 0
        output = capsys.readouterr().out
        assert "minimal key" in output
        assert "(id)" in output

    def test_keys_without_header(self, tmp_path, capsys):
        path = tmp_path / "relation.csv"
        path.write_text("1,a\n2,a\n")
        assert main(["keys", str(path), "--no-header"]) == 0
        assert "col0" in capsys.readouterr().out

    def test_keys_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["keys", str(path)]) == 2
        assert "empty" in capsys.readouterr().err


class TestBench:
    def test_unknown_experiment(self, capsys):
        assert main(["bench", "fig9-nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_small_bench_run(self, capsys):
        code = main([
            "bench", "fig3-t5-i2", "--scale", "150",
            "--min-support", "8",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "pincer-search" in output
        assert "apriori" in output
        assert "relative time" in output

    def test_bench_chart_rendering(self, capsys):
        code = main([
            "bench", "fig3-t5-i2", "--scale", "150",
            "--min-support", "8", "--chart",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "candidates per cell" in output
        assert "█" in output

    def test_bench_csv_export(self, tmp_path, capsys):
        out = tmp_path / "cells.csv"
        code = main([
            "bench", "fig3-t5-i2", "--scale", "150",
            "--min-support", "8", "--csv", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith("database,")
        assert "pincer-search" in text
