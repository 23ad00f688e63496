"""Smoke tests for the ftds command-line interface."""

import argparse
import os

import pytest

from repro.cli import _jobs_arg, main


class TestCLI:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_validate_small_case(self, capsys):
        code = main(
            [
                "validate",
                "--processes", "8",
                "--nodes", "2",
                "--k", "2",
                "--samples", "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "schedule length" in out
        assert "PASS" in out

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for sub in (
            "table1a",
            "table1b",
            "table1c",
            "figure10",
            "cc",
            "validate",
            "gantt",
            "export",
        ):
            assert sub in out

    def test_gantt_small_case(self, capsys):
        code = main(["gantt", "--processes", "6", "--nodes", "2", "--k", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "schedule length" in out
        assert "N1" in out

    def test_jobs_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1a", "--jobs", "0"])
        assert excinfo.value.code == 2  # argparse usage error
        assert "-1 for all CPUs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gantt", "--processes", "0"],
            ["validate", "--nodes", "0"],
            ["export", "case.json", "--k", "-1"],
            ["inject", "--mu", "-1"],
            ["table1c", "--seeds", "0"],
            ["table1a", "--time-scale", "0"],
            ["figure10", "--time-scale", "-2"],
            ["validate", "--samples", "-5"],
        ],
        ids="_".join,
    )
    def test_out_of_range_input_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error
        assert "must be" in capsys.readouterr().err

    def test_jobs_negative_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure10", "--jobs", "-3"])
        assert excinfo.value.code == 2
        assert "n_jobs" in capsys.readouterr().err

    def test_jobs_non_integer_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1a", "--jobs", "many"])
        assert "invalid" in capsys.readouterr().err

    def test_jobs_minus_one_resolves_to_all_cpus(self):
        assert _jobs_arg("-1") == (os.cpu_count() or 1)
        assert _jobs_arg("4") == 4
        with pytest.raises(argparse.ArgumentTypeError):
            _jobs_arg("0")

    def test_export_round_trips(self, tmp_path, capsys):
        target = tmp_path / "case.json"
        code = main(
            ["export", str(target), "--processes", "6", "--nodes", "2", "--k", "1"]
        )
        assert code == 0
        from repro.io.json_codec import load_case

        app, arch, faults, impl = load_case(target)
        assert impl is not None
        assert len(app.graphs[0]) == 6
