import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from helpers import force_unphysical, force_unphysical_observables, never_solve

import blockade.cli
import blockade.steady
from blockade.cli import (
    CSV_HEADER,
    CliUsageError,
    format_value,
    main,
    parse_axis,
    parse_config,
    sweep_to_csv,
    sweep_to_json,
)
from blockade.model import SystemParams
from blockade.sweep import GridAxis, preset, run_sweep


def stdout_fields(captured: str) -> dict:
    fields = {}
    for line in captured.strip().splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            fields[key] = value
    return fields


class TestParseConfig:
    def test_solve_flags(self):
        cfg = parse_config(["solve", "--f", "0.1", "--g", "0.0273", "--phi", "0.2618", "--u", "0.5"])
        assert cfg.command == "solve"
        assert cfg.params.f == 0.1
        assert cfg.params.g == 0.0273
        assert cfg.params.phi == 0.2618
        assert cfg.params.u == 0.5
        assert cfg.params.delta == 0.0 and cfg.params.kappa == 1.0
        assert cfg.tol == 1e-3 and cfg.max_dim == 60 and cfg.format == "csv"

    def test_sweep_preset(self):
        cfg = parse_config(["sweep", "--preset", "fig1a", "--format", "json"])
        assert cfg.preset == "fig1a"
        assert cfg.format == "json"
        assert (cfg.params, cfg.axes) == preset("fig1a")

    def test_config_overrides_preset_base(self):
        cfg = parse_config(["sweep", "--preset", "fig1a"], config_text='{"u": 0.7}')
        assert cfg.params == preset("fig1a")[0].replace(u=0.7)

    def test_flags_override_config_overrides_defaults(self):
        cfg = parse_config(["solve", "--f", "0.1"], config_text='{"f": 0.2, "tol": 1e-4}')
        assert cfg.params.f == 0.1
        assert cfg.tol == 1e-4
        assert cfg.params.kappa == 1.0

    def test_config_alone_sets_params(self):
        cfg = parse_config(["solve"], config_text='{"f": 0.25, "u": 1.5}')
        assert cfg.params.f == 0.25 and cfg.params.u == 1.5

    def test_malformed_config_json(self):
        with pytest.raises(CliUsageError):
            parse_config(["solve"], config_text="{not json")

    def test_unknown_config_field(self):
        with pytest.raises(CliUsageError):
            parse_config(["solve"], config_text='{"driving": 0.1}')

    def test_config_type_checks(self):
        with pytest.raises(CliUsageError):
            parse_config(["solve"], config_text='{"f": "strong"}')
        with pytest.raises(CliUsageError):
            parse_config(["sweep"], config_text='{"max_dim": 24.5, "preset": "fig1a"}')

    def test_sweep_requires_axes_or_preset(self):
        with pytest.raises(CliUsageError):
            parse_config(["sweep"])

    def test_solve_rejects_axes_and_preset(self):
        with pytest.raises(CliUsageError):
            parse_config(["solve"], config_text='{"axis": "f:0:0.1:5"}')
        with pytest.raises(CliUsageError):
            parse_config(["solve"], config_text='{"preset": "fig1a"}')

    def test_axis_flag_parsing(self):
        cfg = parse_config(["sweep", "--axis", "delta:-1:1:11", "--axis", "g:0.05,0.1,0.2"])
        assert cfg.axes[0] == GridAxis.linear("delta", -1.0, 1.0, 11)
        assert cfg.axes[1] == GridAxis("g", (0.05, 0.1, 0.2))

    def test_sweep_rejects_two_axes_on_one_parameter(self):
        with pytest.raises(CliUsageError, match="distinct parameters, both are 'g'"):
            parse_config(["sweep", "--axis", "g:0:0.1:3", "--axis", "g:0:0.2:3"])

    def test_three_axes_are_usage_errors(self):
        axes = ["f:0:0.1:3", "g:0:0.1:3", "u:0:0.1:3"]
        with pytest.raises(CliUsageError, match="one or two axes, got 3"):
            parse_config(["sweep", *(f"--axis={axis}" for axis in axes)])
        # solve has no --axis flag; a config file's axes are reported as such
        with pytest.raises(CliUsageError, match="solve does not accept axes"):
            parse_config(["solve"], config_text=json.dumps({"axis": axes}))

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--tol", "nan"],
            ["solve", "--tol=-1e-3"],
            ["solve", "--max-dim", "11"],
            ["sweep", "--axis", "f:0:0.1:3", "--tol", "nan"],
            ["sweep", "--axis", "f:0:0.1:3", "--max-dim", "6"],
            ["spectrum", "--n-max", "-1"],
            ["sweep", "--axis", "f:-0.1:0.1:3"],  # a negative drive on the grid
        ],
    )
    def test_values_no_command_can_run_are_usage_errors(self, argv):
        with pytest.raises(CliUsageError):
            parse_config(argv)

    def test_bad_worker_count_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("BLOCKADE_THREADS", "zero")
        with pytest.raises(CliUsageError, match="BLOCKADE_THREADS"):
            parse_config(["sweep", "--axis", "f:0:0.1:3"])
        parse_config(["solve"])  # only a sweep starts workers

    def test_invalid_params_rejected(self):
        with pytest.raises(CliUsageError):
            parse_config(["solve", "--kappa", "0"])
        with pytest.raises(CliUsageError):
            parse_config(["solve", "--f", "-0.1"])


class TestParseAxis:
    def test_linear(self):
        assert parse_axis("f:0.01:0.3:101") == GridAxis.linear("f", 0.01, 0.3, 101)

    def test_explicit(self):
        assert parse_axis("u:0.1,0.5,1,2") == GridAxis("u", (0.1, 0.5, 1.0, 2.0))

    @pytest.mark.parametrize(
        "text",
        ["f", "f:1:2", "f:a:b:c", "f:0:1:2:3:4", "q:0:1:5", "f:0:1:1", "g:0.2,0.1"],
    )
    def test_malformed(self, text):
        with pytest.raises(CliUsageError):
            parse_axis(text)


def subcommand_flags() -> dict:
    """Subcommand -> the option strings its parser accepts, without --help."""
    parser = blockade.cli._build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }


class TestFieldTables:
    """The parser and the config check are both driven by _FIELDS and _COMMANDS."""

    WRONG_TYPED = {float: "0.1", int: 12.0, str: 1, list: ["f:0:1:3", 2]}

    def test_each_parser_has_its_fields_and_config(self):
        flags = subcommand_flags()
        assert sorted(flags) == sorted(blockade.cli._COMMANDS)
        for command, (_, names) in blockade.cli._COMMANDS.items():
            assert flags[command] == {"--" + name.replace("_", "-") for name in names} | {"--config"}

    def test_every_field_is_a_flag(self):
        flags = set().union(*subcommand_flags().values())
        for name in blockade.cli._FIELDS:
            assert "--" + name.replace("_", "-") in flags

    @pytest.mark.parametrize("name", sorted(blockade.cli._FIELDS))
    def test_wrong_typed_config_value_is_usage_error(self, name):
        kind = blockade.cli._FIELDS[name][0]
        config = json.dumps({name: self.WRONG_TYPED[kind]})
        with pytest.raises(CliUsageError, match=f"config field '{name}' must be"):
            parse_config(["solve"], config_text=config)
        with pytest.raises(CliUsageError, match=f"config field '{name}' must be"):
            parse_config(["solve"], config_text=json.dumps({name: True}))

    def test_format_value_prints_small_ints_as_integers(self):
        assert [format_value(n) for n in (0, 12, 60, -3)] == ["0", "12", "60", "-3"]


class TestExitCodes:
    def test_solve_success(self, capsys):
        assert main(["solve", "--f", "0.1"]) == 0

    def test_unknown_flag(self, capsys):
        assert main(["solve", "--driving", "1"]) == 2

    def test_malformed_number(self, capsys):
        assert main(["solve", "--f", "strong"]) == 2

    def test_optimal_pole(self, capsys):
        assert main(["optimal", "--f", "0.1", "--phi", "1.5708", "--delta", "-0.5"]) == 2
        assert "singular" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert main(["sweep", "--preset", "fig9z"]) == 2
        assert "fig1a" in capsys.readouterr().err

    def test_solver_failure(self, capsys):
        assert main(["solve", "--f", "0.1", "--u", "0.5", "--tol", "0", "--max-dim", "24"]) == 1
        assert "solver failure" in capsys.readouterr().err

    def test_unphysical_solution_is_solver_failure(self, capsys, monkeypatch):
        force_unphysical(monkeypatch)
        assert main(["solve", "--f", "0.1"]) == 1
        assert "solver failure" in capsys.readouterr().err
        monkeypatch.setenv("BLOCKADE_THREADS", "1")
        assert main(["sweep", "--axis", "delta:0:1:2", "--f", "0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["FAIL", "FAIL"]

    def test_unphysical_observables_are_solver_failure(self, capsys, monkeypatch):
        force_unphysical_observables(monkeypatch)
        assert main(["solve", "--f", "0.1"]) == 1
        assert "solver failure: unphysical observables" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["solve", "--f", "1e300"], ["solve", "--delta", "1e308", "--f", "1"]])
    def test_overflowing_system_is_one_line_solver_failure(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print ahead of the diagnostic
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ")
        assert len(err.splitlines()) == 1

    def test_unstable_point_is_solver_failure(self, capsys, monkeypatch):
        never_solve(monkeypatch)
        assert main(["solve", "--g", "0.3", "--f", "0.1"]) == 1
        assert "solver failure: no steady state" in capsys.readouterr().err

    def test_unwritable_output(self, capsys, tmp_path):
        missing_dir = tmp_path / "missing" / "out.csv"
        code = main(["sweep", "--axis", "delta:0:1:2", "--f", "0.1", "--output", str(missing_dir)])
        assert code == 1

    def test_unwritable_output_fails_before_solving(self, capsys, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the grid was solved before the output was opened")

        monkeypatch.setattr(blockade.cli, "run_sweep", never)
        missing_dir = tmp_path / "missing" / "out.csv"
        code = main(["sweep", "--axis", "delta:0:1:2", "--f", "0.1", "--output", str(missing_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ")
        assert len(err.splitlines()) == 1

    def test_failed_sweep_leaves_existing_output(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("earlier result\n", encoding="utf-8")
        argv = ["sweep", "--axis", "f:0:1:2", "--axis", "f:0:1:3", "--output", str(target)]
        assert main(argv) == 2  # two axes on one parameter are a usage error
        assert target.read_text(encoding="utf-8") == "earlier result\n"

    def test_rejected_sweep_creates_no_output(self, capsys, tmp_path):
        target = tmp_path / "new.csv"
        argv = ["sweep", "--axis", "g:0:0.1:3", "--f", "0.1", "--max-dim", "6", "--output", str(target)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("usage error: max_dim=6 is below")
        assert not target.exists()

    def test_negative_n_max_prints_no_header(self, capsys):
        assert main(["spectrum", "--n-max", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: n_max must be a non-negative integer")

    @pytest.mark.parametrize(
        "argv", [["solve", "--f", "0.1"], ["sweep", "--axis", "delta:0:1:2", "--f", "0.1"]]
    )
    def test_value_error_inside_a_solve_is_not_a_usage_error(self, capsys, monkeypatch, argv):
        def stray(points, dim):
            raise ValueError("stray value error")

        monkeypatch.setenv("BLOCKADE_THREADS", "1")
        monkeypatch.setattr(blockade.steady, "_rung", stray)
        with pytest.raises(ValueError, match="stray value error"):
            main(argv)
        assert "usage error" not in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["f", "tol"])
    def test_config_integer_too_large_for_float(self, capsys, tmp_path, field):
        config = tmp_path / "big.json"
        config.write_text('{"%s": %s}' % (field, "9" * 400), encoding="utf-8")
        assert main(["solve", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: config field {field!r} is too large")
        assert len(err.splitlines()) == 1

    def test_missing_config_file(self, capsys, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 1

    def test_config_file_not_utf8(self, capsys, tmp_path):
        config = tmp_path / "utf16.json"
        config.write_bytes(b"\xff\xfe" + '{"f": 0.1}'.encode("utf-16-le"))
        assert main(["solve", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot read config file: ")
        assert len(err.splitlines()) == 1

    def test_malformed_corpus_never_raises(self, capsys):
        corpus = [
            [],
            ["frobnicate"],
            ["solve", "--f"],
            ["solve", "--kappa", "-2"],
            ["sweep"],
            ["sweep", "--axis", "f:0:1"],
            ["sweep", "--axis", "f:0:1:1"],
            ["sweep", "--preset"],
            ["spectrum", "--n-max", "-3"],
            ["analytic", "--phi", "sideways"],
            ["solve", "--max-dim", "ten"],
            ["solve", "--f", "0.1", "--tol", "nan"],
            ["sweep", "--axis", "f:0:0.1:3", "--tol", "-1"],
            ["analytic", "--f", "1e300"],  # f**2 overflows double precision
            ["optimal", "--f", "1e300"],
            ["analytic", "--u", "1e300", "--f", "1e10"],  # C1 overflows
            ["analytic", "--phi", "1e308", "--f", "1"],  # 2*phi overflows
            ["optimal", "--phi", "1e308"],
        ]
        for argv in corpus:
            code = main(argv)
            capsys.readouterr()
            assert code == 2, f"argv {argv!r} returned {code}"
        # parameters the analytics cannot evaluate are not usage errors
        for argv, label in [
            (corpus[-3], "degenerate parameters: "),
            (corpus[-2], "degenerate parameters: "),
            (corpus[-1], "singular parameters: "),
        ]:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(label), f"argv {argv!r} printed {err!r}"
            assert len(err.splitlines()) == 1

    def test_overflowing_axis_span_is_one_line_usage_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print ahead of the diagnostic
            assert main(["sweep", "--axis", "delta:-1e308:1e308:3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad axis ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize(
        "argv",
        [["solve", "--f", "0.1"], ["optimal"], ["analytic"], ["spectrum"], ["sweep", "--axis", "f:0:0.1:2"]],
    )
    def test_closed_stdout_is_one_line_io_failure(self, argv, buffered):
        env = {**os.environ, "BLOCKADE_THREADS": "1"}
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before anything is written
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "blockade.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == "cannot write output: [Errno 32] Broken pipe\n"


class TestSolveCommand:
    def test_coherent_point(self, capsys):
        assert main(["solve", "--f", "0.1"]) == 0
        fields = stdout_fields(capsys.readouterr().out)
        assert float(fields["n_mean"]) == pytest.approx(0.04, abs=1e-6)
        assert float(fields["g2"]) == pytest.approx(1.0, abs=1e-3)
        assert int(fields["dim"]) >= 12
        pops = [float(x) for x in fields["populations"].split(",")]
        assert sum(pops) == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_prints_undefined_markers(self, capsys):
        assert main(["solve"]) == 0
        fields = stdout_fields(capsys.readouterr().out)
        assert float(fields["n_mean"]) == 0.0
        assert fields["g2"] == "NA"
        assert fields["lg_n"] == "NA"
        assert fields["lg_g2"] == "NA"

    def test_config_file_end_to_end(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"f": 0.1, "tol": 1e-4}))
        assert main(["solve", "--config", str(config)]) == 0
        fields = stdout_fields(capsys.readouterr().out)
        assert float(fields["n_mean"]) == pytest.approx(0.04, abs=1e-6)


class TestAnalyticCommand:
    def test_cancellation_point(self, capsys):
        code = main(
            ["analytic", "--f", "0.1", "--phi", str(math.pi / 8), "--delta", "0.5", "--g", str(math.sqrt(2) * 0.01)]
        )
        assert code == 0
        fields = stdout_fields(capsys.readouterr().out)
        assert abs(float(fields["real_residual"])) <= 1e-16
        assert abs(float(fields["imag_residual"])) <= 1e-16
        assert float(fields["g2_analytic"]) <= 1e-25

    def test_degenerate_parameters_exit_2(self, capsys):
        assert main(["analytic", "--kappa", "1e-8"]) == 2


class TestOptimalCommand:
    def test_reference_value(self, capsys):
        assert main(["optimal", "--f", "0.1", "--phi", str(math.pi / 12)]) == 0
        fields = stdout_fields(capsys.readouterr().out)
        assert float(fields["g_opt"]) == pytest.approx(0.0273205, abs=1e-7)


class TestSpectrumCommand:
    def test_kerr_ladder(self, capsys):
        assert main(["spectrum", "--u", "0.5", "--omega-a", "1", "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,energy"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        assert [float(r[1]) for r in rows] == [0.0, 1.0, 3.0, 6.0]


@pytest.fixture(scope="module")
def small_result():
    base = SystemParams(u=0.5, phi=math.pi / 12)
    axes = [GridAxis.linear("f", 0.05, 0.15, 3), GridAxis.linear("g", 0.0, 0.02, 2)]
    return run_sweep(base, axes, workers=1)


class TestSerialization:
    def test_csv_header_is_pinned(self, small_result):
        text = sweep_to_csv(small_result)
        assert text.splitlines()[0] == (
            "axis1_name,axis1_value,axis2_name,axis2_value,"
            "delta,u,g,f,phi,kappa,dim,n_mean,g2,lg_n,lg_g2,status"
        )
        assert text.splitlines()[0] == CSV_HEADER

    def test_csv_roundtrips_floats_exactly(self, small_result):
        reader = csv.DictReader(io.StringIO(sweep_to_csv(small_result)))
        rows = list(reader)
        assert len(rows) == 6
        for parsed, row in zip(rows, small_result.rows):
            assert float(parsed["axis1_value"]) == row.params.f
            assert float(parsed["n_mean"]) == row.n_mean
            assert float(parsed["g2"]) == row.g2
            assert parsed["status"] == "OK"
            assert int(parsed["dim"]) == row.dim

    def test_one_dimensional_sweep_uses_na_markers(self):
        result = run_sweep(SystemParams(f=0.1), [GridAxis.linear("delta", 0.0, 1.0, 2)], workers=1)
        lines = sweep_to_csv(result).splitlines()
        first = lines[1].split(",")
        assert first[2] == "NA" and first[3] == "NA"

    def test_undefined_g2_serialized_as_na(self):
        result = run_sweep(SystemParams(), [GridAxis.linear("f", 0.0, 0.1, 2)], workers=1)
        row = sweep_to_csv(result).splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert row[header.index("g2")] == "NA"
        assert row[header.index("n_mean")] == "0"
        assert row[header.index("status")] == "OK"

    def test_json_round_trip(self, small_result):
        text = sweep_to_json(small_result)
        doc = json.loads(text)
        metadata, rows = doc["metadata"], doc["rows"]
        assert metadata["dims_used"] == small_result.metadata["dims_used"]
        assert len(rows) == len(small_result.rows)
        for parsed, row in zip(rows, small_result.rows):
            assert parsed["axis1_value"] == row.params.f
            assert parsed["n_mean"] == row.n_mean
            assert parsed["g2"] == row.g2
            assert parsed["lg_g2"] == row.lg_g2
            assert parsed["dim"] == row.dim
        # serializing the parsed document again reproduces the text bit for bit
        assert json.dumps(json.loads(text), indent=2) + "\n" == text

    def test_csv_json_numeric_identity(self, small_result):
        csv_rows = list(csv.DictReader(io.StringIO(sweep_to_csv(small_result))))
        json_rows = json.loads(sweep_to_json(small_result))["rows"]
        numeric = ["axis1_value", "axis2_value", "delta", "u", "g", "f", "phi", "kappa", "n_mean", "g2", "lg_n", "lg_g2"]
        for c_row, j_row in zip(csv_rows, json_rows):
            for key in numeric:
                if c_row[key] == "NA":
                    assert j_row[key] is None
                else:
                    assert float(c_row[key]) == j_row[key]

    def test_format_value_17_digits(self):
        assert format_value(None) == "NA"
        assert format_value(0.1) == "0.10000000000000001"
        assert float(format_value(math.pi)) == math.pi


class TestSweepCommand:
    def test_explicit_axes_to_stdout(self, capsys):
        code = main(["sweep", "--axis", "f:0.05:0.1:2", "--axis", "g:0:0.01:2", "--u", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code = main(["sweep", "--axis", "delta:0:1:3", "--f", "0.1", "--output", str(path)])
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        path.write_text("a longer earlier result\n" * 50)
        assert main(["sweep", "--axis", "delta:0:1:3", "--f", "0.1", "--output", str(path)]) == 0
        assert path.read_text().strip().splitlines() == lines

    def test_preset_base_overridable(self, capsys):
        # overriding the preset's fixed drive must show up in every row
        code = main(
            ["sweep", "--preset", "fig2a", "--f", "0.05", "--axis", "delta:-0.1:0.1:3", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        metadata, rows = doc["metadata"], doc["rows"]
        assert metadata["preset"] == "fig2a"
        assert len(rows) == 3
        assert all(row["f"] == 0.05 for row in rows)

    def test_json_format_flag(self, capsys):
        code = main(["sweep", "--axis", "delta:0:1:2", "--f", "0.1", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 2
        assert rows[0]["status"] == "OK"

    def test_full_fig4b_preset_csv(self, capsys, tmp_path):
        # the complete stock map: 101 x 101 grid, every row solved
        path = tmp_path / "fig4b.csv"
        code = main(["sweep", "--preset", "fig4b", "--output", str(path)])
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 101 * 101
        statuses = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert statuses == {"OK"}
