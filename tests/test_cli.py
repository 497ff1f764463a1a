"""CLI surface: output formats, exit codes, thinness over the library."""

import sys

import pytest

from cantordim import (
    CantorParams,
    construct_prefractal,
    dimension_from_scale,
    emit_operator_grid,
    estimate_dimension,
    export_intervals,
    import_intervals,
    scale_ladder,
)
from cantordim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_dim(self, capsys):
        code, out, _ = run(capsys, "dim", "--n", "3", "--gamma", str(1 / 9))
        assert code == 0
        assert out.strip() == "D = 0.5"

    def test_dim_matches_library_exactly(self, capsys):
        code, out, _ = run(capsys, "dim", "--n", "5", "--gamma", "0.1", "--digits", "17")
        assert out.strip() == f"D = {format(dimension_from_scale(5, 0.1), '.17g')}"

    def test_scale_with_underflow_note(self, capsys):
        code, out, _ = run(capsys, "scale", "--n", "2", "--d", "0.0001")
        assert code == 0
        assert "gamma = 0" in out
        assert "underflows" in out

    def test_op_add_units(self, capsys):
        code, out, _ = run(capsys, "op", "add", "--da", "1", "--db", "1", "--n", "2")
        assert code == 0
        assert "D_C = 0.5" in out
        assert "gamma_C = 0.25" in out

    def test_op_domain_error_prints_condition(self, capsys):
        code, out, err = run(capsys, "op", "sub", "--da", "0.4", "--db", "0.5", "--n", "2")
        assert code == 1
        assert out == ""
        assert "subtraction requires D_A < D_B/(1+D_B)" in err

    def test_pow(self, capsys):
        code, out, _ = run(capsys, "pow", "--da", "0.5", "--k", "3", "--n", "2")
        assert code == 0
        assert "D_C = 0.125" in out

    def test_pow_prints_like_op(self, capsys):
        _, pow_out, _ = run(capsys, "pow", "--da", "0.5", "--k", "2", "--n", "2")
        _, op_out, _ = run(capsys, "op", "mul", "--da", "0.5", "--db", "0.5", "--n", "2")
        assert pow_out == op_out == "D_C = 0.25\ngamma_C = 0.0625\n"

    def test_op_gamma_underflow_note(self, capsys):
        code, out, _ = run(capsys, "op", "mul", "--da", "0.01", "--db", "0.01", "--n", "8")
        assert code == 0
        assert out.endswith("gamma_C = 0\nnote: gamma_C underflows binary64; reported as 0\n")

    def test_op_result_underflow_note(self, capsys):
        code, out, _ = run(capsys, "op", "mul", "--da", "1e-200", "--db", "1e-200", "--n", "3")
        assert code == 0
        assert out == (
            "D_C = 0\ngamma_C = 0\nnote: D_C and gamma_C underflow binary64; reported as 0\n"
        )

    def test_ddgamma(self, capsys):
        code, out, _ = run(capsys, "ddgamma", "--n", "2", "--gamma", "0.25")
        assert code == 0
        assert "dD/dgamma = 1.44269504089" in out

    def test_bounds_line_format(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "5", "--gamma", "0.1")
        assert code == 0
        assert out.strip() == "eps_min=0 eps_reg=0.125 eps_max=0.25"

    def test_bounds_domain_error_for_n3(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "3", "--gamma", "0.2")
        assert code == 1
        assert "error:" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["op", "add", "--da", "1"])  # missing --db/--n
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("digits", ["-1", "0", "18", str(10**11), "1.5"])
    def test_digits_out_of_range_is_a_usage_error(self, capsys, digits):
        with pytest.raises(SystemExit) as exc:
            main(["dim", "--n", "2", "--gamma", "0.25", "--digits", digits])
        assert exc.value.code == 2
        assert "--digits: expected an integer from 1 to 17" in capsys.readouterr().err

    def test_digits_at_the_ends_of_the_range(self, capsys):
        _, out, _ = run(capsys, "op", "mul", "--da", "0.3", "--db", "0.7", "--n", "3",
                        "--digits", "17")
        assert out == "D_C = 0.20999999999999999\ngamma_C = 0.0053455700511782544\n"
        _, out, _ = run(capsys, "dim", "--n", "3", "--gamma", "0.1", "--digits", "1")
        assert out == "D = 0.5\n"


class TestFileCommands:
    def test_construct_json_stdout_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--n", "2", "--gamma", str(1 / 3), "--stage", "2",
            "--format", "json",
        )
        assert code == 0
        s = import_intervals(out)
        assert len(s) == 4
        assert s.params.stage == 2

    def test_construct_to_file(self, tmp_path, capsys):
        target = tmp_path / "set.csv"
        code, out, _ = run(
            capsys, "construct", "--n", "4", "--gamma", "0.2", "--eps", "0.05",
            "--stage", "3", "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        s = import_intervals(target.read_text(), "csv")
        assert len(s) == 64

    def test_construct_svg(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--n", "5", "--gamma", "0.1", "--eps", "0.125",
            "--stage", "1", "--format", "svg",
        )
        assert code == 0
        assert out.startswith("<?xml")
        assert "</svg>" in out

    def test_estimate_from_json(self, tmp_path, capsys):
        target = tmp_path / "set.json"
        run(
            capsys, "construct", "--n", "2", "--gamma", str(1 / 3), "--stage", "6",
            "--format", "json", "--out", str(target),
        )
        code, out, _ = run(capsys, "estimate", "--in", str(target))
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("d_hat")][0]
        assert abs(float(line.split("=")[1]) - 0.6309297535714574) < 0.02

    def test_estimate_with_explicit_deltas(self, tmp_path, capsys):
        target = tmp_path / "set.csv"
        run(
            capsys, "construct", "--n", "2", "--gamma", str(1 / 3), "--stage", "5",
            "--format", "csv", "--out", str(target),
        )
        deltas = [str((1 / 3) ** k) for k in range(1, 6)]
        code, out, _ = run(capsys, "estimate", "--in", str(target), "--deltas", *deltas)
        assert code == 0
        assert "d_hat = 0.63092975357" in out

    @pytest.fixture
    def saved_set(self, tmp_path):
        """A stage-6 set saved as JSON (with its parameters) and as CSV (without)."""
        s = construct_prefractal(CantorParams(2, 1 / 3, 0.0, 6))
        for fmt in ("json", "csv"):
            (tmp_path / f"set.{fmt}").write_text(export_intervals(s, fmt))
        return s, tmp_path

    @pytest.mark.parametrize("per_level", [None, 4])
    def test_estimate_per_level(self, saved_set, capsys, per_level):
        s, folder = saved_set
        flags = () if per_level is None else ("--per-level", str(per_level))
        code, out, _ = run(capsys, "estimate", "--in", str(folder / "set.json"), *flags,
                           "--digits", "17")
        deltas = None if per_level is None else scale_ladder(1 / 3, 6, per_level)
        est = estimate_dimension(s, deltas)
        assert (code, out) == (0, f"d_hat = {est.d_hat:.17g}\nstderr = {est.stderr:.17g}\n")

    @pytest.mark.parametrize("per_level", ["0", "-3", "10001"])
    def test_estimate_per_level_out_of_range(self, saved_set, capsys, per_level):
        _, folder = saved_set
        code, out, err = run(capsys, "estimate", "--in", str(folder / "set.json"),
                             "--per-level", per_level)
        assert (code, out) == (1, "")
        assert err == f"error: per_level must lie in [1, 10000], got {per_level}\n"

    @pytest.mark.parametrize("per_level", ["0", "1", "4"])
    def test_estimate_takes_deltas_or_per_level_not_both(self, saved_set, capsys, per_level):
        # "1" is --per-level's default, which must not pass as if it were not given
        _, folder = saved_set
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--in", str(folder / "set.json"), "--deltas", "0.1", "0.01",
                  "0.001", "--per-level", per_level])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "not allowed with argument" in err

    def test_estimate_per_level_needs_parameters(self, saved_set, capsys):
        _, folder = saved_set
        code, out, err = run(capsys, "estimate", "--in", str(folder / "set.csv"),
                             "--per-level", "4")
        assert (code, out) == (1, "")
        assert err == "error: no deltas given and the set carries no construction parameters\n"

    def test_estimate_missing_file(self, capsys):
        code, _, err = run(capsys, "estimate", "--in", "/nonexistent/set.json")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("data", [b"x\xff", b"{\xff"])
    def test_estimate_undecodable_file(self, tmp_path, capsys, data):
        target = tmp_path / "set.csv"
        target.write_bytes(data)
        code, out, err = run(capsys, "estimate", "--in", str(target))
        assert (code, out) == (1, "")
        assert err == "error: document is not UTF-8: invalid start byte (byte 1)\n"

    @pytest.mark.parametrize("data", [
        '{"x": ' + "[" * 2000 + "]" * 2000 + ', "intervals": []}',
        '{"intervals": [[0, ' + "1" * (getattr(sys, "get_int_max_str_digits", int)() + 1) + "]]}",
    ], ids=["deep nesting", "long integer"])
    def test_estimate_hostile_json(self, tmp_path, capsys, data):
        target = tmp_path / "set.json"
        target.write_text(data)
        code, out, err = run(capsys, "estimate", "--in", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("name, data", [
        ("set.csv", "start,end\n0.1,0.3\n0.2999999999995,0.29999999999975\n0.6,0.7\n"),
        ("set.json", '{"intervals": [[0.1, 0.3], [0.2999999999995, 0.29999999999975]]}'),
    ])
    def test_estimate_nested_set(self, tmp_path, capsys, name, data):
        target = tmp_path / name
        target.write_text(data)
        code, out, err = run(capsys, "estimate", "--in", str(target), "--deltas", "0.5", "0.1")
        assert (code, out) == (1, "")
        assert err == "error: intervals must be sorted by start and by end\n"

    def test_verify_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--op", "mul", "--da", "0.5", "--db", "0.5", "--n", "2",
            "--stage", "6", "--tol", "0.05",
        )
        assert code == 0
        assert "PASS" in out

    def test_verify_unverifiable_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--op", "mul", "--da", "0.05", "--db", "0.05", "--n", "8",
        )
        assert code == 0
        assert "UNVERIFIABLE" in out

    def test_verify_domain_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--op", "sub", "--da", "0.4", "--db", "0.5", "--n", "2",
        )
        assert code == 1
        assert "subtraction requires" in err

    def test_grid_matches_library_stream(self, tmp_path, capsys):
        target = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "grid", "--op", "add", "--res", "8", "--n", "2", "--out", str(target),
        )
        assert code == 0
        assert target.read_text() == emit_operator_grid("add", 8, 2)[1]
