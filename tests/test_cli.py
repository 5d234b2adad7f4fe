"""Command-line surface tests: exit codes, report schemas, determinism."""

import argparse
import builtins
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from bohrlab import cli
from cli_checks import CHECKS, SRC, run


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRadiusCommand:
    def test_libera_alias(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "--op", "libera")
        assert code == 0
        assert abs(json.loads(out)["results"]["root"] - 0.5828) <= 1e-3

    def test_bernardi_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "radius", "--op", "bernardi", "--gamma", "0", "--m", "1"
        )
        assert code == 0
        assert abs(json.loads(out)["results"]["root"] - 0.5828) <= 1e-3

    def test_nonpositive_beta_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "radius", "--op", "cesaro", "--beta", "-1")
        assert code == 2 and "parameter" in err

    def test_tiny_positive_beta_is_valid(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "--op", "cesaro", "--beta", "1e-12")
        assert code == 0
        assert 0.0 < json.loads(out)["results"]["root"] < 1.0

    @pytest.mark.parametrize("command", ["radius", "verify", "sharpness"])
    @pytest.mark.parametrize(
        "op,flag", [("cesaro", "beta"), ("cbeta", "beta"), ("bernardi", "gamma")]
    )
    def test_missing_beta_exits_2(self, capsys, command, op, flag):
        # an operator's first flag is required; the message names it
        code, out, err = run_cli(capsys, command, "--op", op)
        assert code == 2 and out == ""
        assert err == f"parameter error: --{flag} is required for the {op} operator\n"

    @pytest.mark.parametrize("flags", [("cesaro", "--beta"), ("bernardi", "--gamma")], ids=" ".join)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_parameter_exits_2(self, capsys, flags, value):
        op, flag = flags
        code, out, err = run_cli(capsys, "radius", "--op", op, f"{flag}={value}")
        assert code == 2 and out == ""
        assert err.startswith("parameter error:") and "finite" in err

    @pytest.mark.parametrize("gamma,m", [("1e-9", "0"), ("-0.999", "1")])
    def test_corner_refused_with_exit_2(self, capsys, gamma, m):
        code, out, err = run_cli(capsys, "radius", "--op", "bernardi", "--gamma", gamma, "--m", m)
        assert code == 2 and out == ""
        assert "refused" in err and "exp(-1/(2(m+gamma)))" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [("radius", "--op", "bernardi", "--gamma", "1"), ("curve", "--op", "bernardi",
                                                          "--grid-values", "1")],
        ids=lambda argv: argv[0],
    )
    def test_m_past_the_float_range_exits_2(self, capsys, argv, fmt):
        # m + gamma overflows converting m to a float: a domain error, no traceback
        m = str(10**400)
        code, out, err = run_cli(capsys, *argv, "--m", m, "--format", fmt)
        assert code == 2 and out == ""
        assert err == f"parameter error: m+gamma must be finite, got m={m}, gamma=1.0\n"

    def test_gamma_above_the_old_limit_refused_with_exit_2(self, capsys):
        # root >= 1 - exp(-12.5), above 1 - 2**-15, the last ladder point the
        # 10**6-term tail reaches
        code, out, err = run_cli(capsys, "radius", "--op", "bernardi", "--gamma", "0.04", "--m", "0")
        assert code == 2 and out == ""
        assert "refused" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv", [("verify",), ("sharpness", "--r", "0.5")], ids=lambda argv: argv[0]
    )
    def test_large_beta_exits_2_with_one_line(self, capsys, argv):
        # the sharp bound A(beta, r)/r overflows (at 0.99 R from beta 1771, at
        # r = 0.5 from 1025); the radius equation, at unit scale, does not
        code, out, err = run_cli(capsys, *argv, "--op", "cesaro", "--beta", "1800")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert "beta=1800" in err and "r=" in err

    @pytest.mark.parametrize("beta", [1100.0, 2000.0])
    def test_large_beta_solves(self, capsys, beta):
        code, out, err = run_cli(capsys, "radius", "--op", "cesaro", "--beta", str(beta))
        assert code == 0, err
        results = json.loads(out)["results"]
        assert abs(results["root"] - (1.0 / 3.0 + 2.0 / (3.0 * beta))) <= 1e-12
        assert abs(results["residual"]) < 1e-12

    @pytest.mark.parametrize(
        "argv,tol",
        [
            pytest.param(argv, tol, id=f"{tol}-{name}")
            for tol in ("nan", "inf", "1e-20")
            for name, argv in (
                ("radius", ("radius", "--op", "cesaro", "--beta", "1")),
                ("curve", ("curve", "--op", "cesaro", "--grid-values", "1,2")),
                ("verify", ("verify", "--op", "cesaro", "--beta", "1", "--samples", "5")),
                # the baseline radius 1/3 is not solved, but its tol is checked
                ("verify-bohr", ("verify", "--op", "bohr", "--samples", "5")),
                ("verify-bohr-above", ("verify", "--op", "bohr", "--r-mode", "above")),
            )
        ],
    )
    def test_nonfinite_tol_exits_2(self, capsys, argv, tol):
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert code == 2 and out == ""
        assert err == f"parameter error: tol must be finite and >= 1e-14, got {float(tol)}\n"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "radius", "--op", "cesaro", "--beta", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "root,residual,bracket_lo,bracket_hi,iterations"
        assert abs(float(lines[1].split(",")[0]) - 0.5) <= 1e-12


class TestCurveCommand:
    def test_beta_window_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curve",
            "--op",
            "cesaro",
            "--grid-values",
            "0.999999,1,1.000001",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,root,residual"
        roots = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(roots) - min(roots) <= 1e-4
        assert abs(roots[1] - 0.5335) <= 1e-3

    def test_gamma_singleton(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--op", "bernardi", "--m", "0", "--grid-values", "1"
        )
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert abs(rows[0]["root"] - 0.5828) <= 1e-3

    def test_empty_grid_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--op", "cesaro", "--grid-values", "", "--format", "csv"
        )
        assert code == 0
        assert out.strip() == "param,root,residual"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "grid,tol", [(("--grid-points", "0"), "nan"), (("--grid-values", ""), "-1")],
        ids=["points-0", "values-empty"],
    )
    def test_empty_grid_still_checks_tol(self, capsys, grid, tol, fmt):
        code, out, err = run_cli(
            capsys, "curve", "--op", "cesaro", *grid, "--tol", tol, "--format", fmt
        )
        assert code == 2 and out == ""
        assert err == f"parameter error: tol must be finite and >= 1e-14, got {float(tol)}\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag", ["min", "max"])
    def test_nonfinite_grid_bound_is_refused_by_name(self, capsys, flag, value, fmt):
        # an infinite step makes 0 * step NaN, which the first row used to blame on beta
        bounds = {"min": "1", "max": "2", flag: value}
        code, out, err = run_cli(
            capsys, "curve", "--op", "cesaro", f"--grid-min={bounds['min']}",
            f"--grid-max={bounds['max']}", "--grid-points", "3", "--format", fmt,
        )
        assert code == 2 and out == ""
        assert err == f"parameter error: --grid-{flag} must be finite, got {float(value)}\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "bounds,points",
        [(("-1e308", "1e308"), "3"), (("1", "1.7976931348623157e308"), "4")],
        ids=["span-overflows", "last-point-rounds-up"],
    )
    def test_overflowing_grid_is_refused_by_both_bounds(self, capsys, bounds, points, fmt):
        # finite bounds, but max - min is inf (0 * inf is NaN at the first row),
        # or the rounded last point min + 3 * step lands past the largest float
        code, out, err = run_cli(
            capsys, "curve", "--op", "cesaro", f"--grid-min={bounds[0]}",
            f"--grid-max={bounds[1]}", "--grid-points", points, "--format", fmt,
        )
        assert code == 2 and out == ""
        assert err == "parameter error: the grid from --grid-min to --grid-max overflows\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("curve", "--op", "cesaro", "--grid-points", "3"),
            ("curve", "--op", "cesaro", "--grid-points", "3", "--grid-min", "1"),
            ("curve", "--op", "cesaro", "--grid-values", "1,,2"),
            ("curve", "--op", "bernardi", "--grid-values", "1,x"),
            ("sharpness", "--op", "cesaro", "--beta", "1", "--r", "0.5", "--a-values", "0.5,abc"),
        ],
        ids=" ".join,
    )
    def test_malformed_grid_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("parameter error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flag,value", [("min", "0.5"), ("max", "3"), ("points", "26")], ids=["min", "max", "points"]
    )
    def test_grid_values_refuse_the_linspace_flags(self, capsys, monkeypatch, flag, value):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved despite a refused flag")

        monkeypatch.setattr(cli, "radius_curve", no_solve)
        code, out, err = run_cli(
            capsys, "curve", "--op", "cesaro", "--grid-values", "1,2", f"--grid-{flag}", value
        )
        assert code == 2 and out == ""
        assert err == f"parameter error: --grid-{flag} does not apply with --grid-values\n"

    @pytest.mark.parametrize(
        "grid",
        [("--grid-min", "1", "--grid-max", "2", "--grid-points", "100001"),
         ("--grid-values", ",".join(["1"] * 100_001))],
        ids=["points", "values"],
    )
    def test_grid_past_the_cap_is_refused_before_any_solve(self, capsys, monkeypatch, grid):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a grid past the cap")

        monkeypatch.setattr(cli, "radius_curve", no_solve)
        code, out, err = run_cli(capsys, "curve", "--op", "cesaro", *grid)
        assert code == 2 and out == ""
        assert err == "parameter error: a grid holds at most 100000 points, got 100001\n"

    def test_linspace_flag_with_grid_values_is_named_before_the_cap(self, capsys):
        grid = ",".join(["1"] * 100_001)
        code, out, err = run_cli(
            capsys, "curve", "--op", "cesaro", "--grid-values", grid, "--grid-min", "1"
        )
        assert code == 2 and out == ""
        assert err == "parameter error: --grid-min does not apply with --grid-values\n"

    def test_grid_at_the_cap_is_solved(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 3)
        for points, code in (("3", 0), ("4", 2)):
            argv = ("curve", "--op", "cesaro", "--grid-min", "1", "--grid-max", "2")
            assert run_cli(capsys, *argv, "--grid-points", points)[0] == code
        assert run_cli(capsys, "curve", "--op", "cesaro", "--grid-values", "1,2,3")[0] == 0
        assert run_cli(capsys, "curve", "--op", "cesaro", "--grid-values", "1,2,3,4")[0] == 2

    def test_linspace_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curve",
            "--op",
            "cesaro",
            "--grid-min",
            "0.5",
            "--grid-max",
            "2.5",
            "--grid-points",
            "5",
        )
        assert code == 0
        assert len(json.loads(out)["results"]["rows"]) == 5


class TestVerifyCommand:
    def test_below_mode_clean_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--op",
            "cesaro",
            "--beta",
            "1",
            "--samples",
            "40",
            "--seed",
            "5",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["violations"] == 0
        assert results["max_excess"] <= 1e-9

    def test_above_mode_finds_witness(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--op",
            "cesaro",
            "--beta",
            "1",
            "--r-mode",
            "above",
            "--r",
            "0.55",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["witness"] is not None and results["margin"] > 0

    @pytest.mark.parametrize("mode", ["below", "at"])
    def test_r_outside_above_mode_exits_2(self, capsys, mode):
        code, out, err = run_cli(
            capsys, "verify", "--op", "libera", "--r-mode", mode, "--r", "0.9", "--samples", "5"
        )
        assert code == 2 and out == ""
        assert err.startswith("parameter error: --r belongs to --r-mode above")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--max-factors", "-1"), "max_factors must be nonnegative, got -1"),
            (("--max-factors", "1001"), "max_factors must be at most 1000, got 1001"),
            (("--radius-cap", "5"), "radius_cap must lie in (0, 0.95], got 5.0"),
        ],
        ids=["max-factors", "max-factors-cap", "radius-cap"],
    )
    def test_draw_flags_are_refused_in_every_mode(self, capsys, flags, message):
        # the above mode draws no corpus, but it echoes the draw flags
        for mode in (("below",), ("at",), ("above", "--r", "0.6")):
            code, out, err = run_cli(
                capsys, "verify", "--op", "libera", "--r-mode", *mode, *flags, "--samples", "5"
            )
            assert code == 2 and out == ""
            assert err == f"parameter error: {message}\n"

    def test_baseline_op(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--op", "bohr", "--samples", "25", "--seed", "9"
        )
        assert code == 0
        assert json.loads(out)["results"]["violations"] == 0

    @pytest.mark.parametrize(
        "flags",
        [
            ("cesaro", "--beta", "1"),
            ("cbeta", "--beta", "2"),
            ("libera",),
            ("alexander",),
            ("primitive",),
            ("bohr",),
            ("bernardi", "--gamma", "2", "--m", "1"),
            ("bernardi", "--gamma", "-2.5", "--m", "3"),
            ("bernardi", "--gamma", "-1", "--m", "2"),
        ],
        ids=" ".join,
    )
    def test_negative_gamma_order_covers_the_tail(self, capsys, flags):
        # verify samples exactly the coefficients the family's weight vector
        # reads, so the sampled extremal majorant is the full one.  With
        # gamma < 0 the tail bounds r**n/((n+gamma)(1-r)) below n = m would be
        # negative or divide by zero; the family L_(m+gamma) starts past them.
        import bohrlab as bl

        code, out, _ = run_cli(capsys, "verify", "--op", *flags, "--samples", "5")
        assert code == 0
        payload = json.loads(out)
        order, r = payload["results"]["coefficient_order"], payload["params"]["r"]
        args = cli._build_parser().parse_args(["verify", "--op", *flags])
        kind = cli._operator_kind(args)
        # the cut scales with a family bound below 1
        eps = 1e-12 * min(1.0, kind.family.bound(r))
        assert order == kind.d + len(kind.family.weights(r, eps)) - 1
        psi = bl.Blaschke((0j,) * kind.d + (0.9,))
        sampled = bl.majorant_value(kind, bl.taylor_coeffs(psi, order), r)
        full = bl.majorant_value(kind, bl.taylor_coeffs(psi, 2000), r)
        assert sampled == full

    def test_above_mode_solves_the_radius_once_at_the_given_tol(self, capsys, monkeypatch):
        from bohrlab import sharpness

        tols = []
        solve = sharpness.solve_radius
        monkeypatch.setattr(
            sharpness, "solve_radius", lambda problem, tol: tols.append(tol) or solve(problem, tol)
        )
        code, _, _ = run_cli(
            capsys, "verify", "--op", "libera", "--r-mode", "above", "--r", "0.6", "--tol", "1e-6"
        )
        assert code == 0 and tols == [1e-6]

    def test_zero_samples_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--op", "cesaro", "--beta", "1", "--samples", "0"
        )
        assert code == 2

    @pytest.mark.parametrize("beta,samples", [(300, 3), (400, 20)])
    def test_rounding_on_a_huge_bound_is_no_violation(self, capsys, beta, samples):
        # The bound is 2.7e50 at beta 300: rounding alone exceeds it by 1e35.
        code, out, err = run_cli(
            capsys, "verify", "--op", "cesaro", "--beta", str(beta), "--samples", str(samples)
        )
        results = json.loads(out)["results"]
        assert code == 0, err
        assert results["violations"] == 0
        assert results["max_excess"] <= 1e-12 * results["bound"]

    def test_relative_excess_above_rounding_is_a_violation(self, capsys, monkeypatch):
        import bohrlab as bl

        # A unimodular constant attains the bound: sweep up to the first one.
        members = (bl.random_schur(bl.derive_seed(0, i), 4, 0.9) for i in range(1000))
        first = next(
            i for i, f in enumerate(members) if not f.zeros and abs(abs(f.scale) - 1.0) <= 1e-12
        )
        bound = cli.sup_bound
        monkeypatch.setattr(cli, "sup_bound", lambda kind, r: bound(kind, r) * (1.0 - 1e-9))
        code, out, _ = run_cli(
            capsys, "verify", "--op", "cesaro", "--beta", "300", "--samples", str(first + 1)
        )
        results = json.loads(out)["results"]
        assert code == 4 and results["first_violation"]["index"] == first

    def test_cesaro_weights_at_large_beta_are_built(self, capsys):
        # the moments need no c_n(beta+1), which overflows before its tail
        # bound reaches the cut; cli_checks.CHECKS solves beta 500 and 1700
        import bohrlab as bl

        code, out, err = run_cli(capsys, "verify", "--op", "cesaro", "--beta", "440",
                                 "--samples", "5")
        report = json.loads(out)
        results, r = report["results"], report["params"]["r"]
        assert code == 0, err
        assert results["violations"] == 0
        assert results["coefficient_order"] == bl.cesaro_series_order(440.0, r, 1e-12)

    def test_bound_below_one_scales_the_cut(self, capsys):
        # The bound r**m/(m+gamma) is 1e-13 at gamma 1e13; an absolute cut
        # of 1e-12 would drop every weight and read every majorant as 0.
        code, out, _ = run_cli(capsys, "verify", "--op", "bernardi", "--gamma", "1e13",
                               "--samples", "5")
        results = json.loads(out)["results"]
        assert code == 0 and results["violations"] == 0
        assert results["coefficient_order"] > 0
        assert -results["bound"] < results["max_excess"] <= 1e-9 * results["bound"]

    @pytest.mark.parametrize("gamma", [1e11, 1e13])
    def test_one_percent_above_a_tiny_bound_is_a_violation(self, capsys, monkeypatch, gamma):
        # An absolute 1e-9 allowance would forgive any excess over these bounds.
        # verify takes every row's value from the screened sum, which keeps each violation.
        monkeypatch.setattr(
            cli, "_screened_majorants",
            lambda kind, coeffs, r, eps, bound, tol: dict.fromkeys(
                range(len(coeffs)), 1.01 * cli.sup_bound(kind, r)),
        )
        code, out, _ = run_cli(capsys, "verify", "--op", "bernardi", "--gamma", str(gamma),
                               "--samples", "5")
        results = json.loads(out)["results"]
        assert results["bound"] == pytest.approx(1.0 / gamma, rel=1e-9)
        assert code == 4 and results["violations"] == 5

    def test_above_mode_finds_a_witness_over_a_tiny_bound(self, capsys):
        # The bound r**m/(m+gamma) is 1e-10 at m 20 (1.6e-47 at m 100, a row
        # of cli_checks.CHECKS); an absolute cut or witness margin of 1e-12
        # hides every witness.
        code, out, err = run_cli(capsys, "verify", "--op", "bernardi", "--gamma", "1", "--m",
                                 "20", "--r-mode", "above")
        results = json.loads(out)["results"]
        assert code == 0, err
        assert results["witness"] is not None
        assert results["margin"] > 1e-12 * results["bound"]

    def test_above_mode_default_r_clears_a_root_near_one(self, capsys):
        # R = 0.99978 lies above the default cap 0.98: r is halfway from R to 1
        code, out, _ = run_cli(
            capsys, "verify", "--op", "bernardi", "--gamma", "0.06", "--m", "0", "--r-mode", "above"
        )
        assert code == 0
        params = json.loads(out)["params"]
        assert params["r"] == (params["critical_radius"] + 1.0) / 2.0

    def test_above_mode_default_r_below_the_cap_is_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--op", "libera", "--r-mode", "above")
        assert code == 0
        params = json.loads(out)["params"]
        assert params["r"] == params["critical_radius"] + 0.02

    def test_cesaro_weights_near_one_find_a_witness(self, capsys):
        # order 368,395, built in O(N); cli_checks.CHECKS solves sharpness at
        # this r (order 437,469)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--op", "cesaro", "--beta", "1", "--r-mode",
                                 "above", "--r", "0.9999")
        assert time.perf_counter() - start < 5.0
        assert code == 0, err
        results = json.loads(out)["results"]
        assert results["witness"] is not None and results["margin"] > 0.0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_bohr_weights_past_the_term_cap_exit_3_at_once(self, capsys, tmp_path, fmt):
        # 1.6e8 weights at this r: refused unbuilt, not after a MemoryError
        target = tmp_path / f"report.{fmt}"
        argv = ("verify", "--op", "bohr", "--r-mode", "above", "--r", "0.9999999")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--format", fmt, "--out", str(target))
        assert time.perf_counter() - start < 5.0
        assert code == 3 and out == "" and not target.exists()
        assert err == (
            "solver error: Bohr weights will not reach 1e-12 within 1000000 terms at r=0.9999999\n"
        )

    def test_underflowing_bound_is_refused_at_once(self, capsys):
        # r**1000/1001 underflows at r = 0.99 R, so no cut relative to it exists.
        code, out, err = run_cli(capsys, "verify", "--op", "bernardi", "--gamma", "1", "--m",
                                 "1000", "--samples", "5")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert "bound" in err and "underflows" in err

    def test_determinism_bytes(self, capsys):
        argv = ("verify", "--op", "libera", "--samples", "30", "--seed", "123")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestSharpnessCommand:
    def test_positive_deficit_below_radius(self, capsys):
        code, out, _ = run_cli(
            capsys, "sharpness", "--op", "libera", "--r", "0.5"
        )
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert all(row["deficit_term"] > 0 for row in rows if row["a"] < 1.0)

    def test_json_report_is_strict(self, capsys):
        # the default a-grid ends at a = 1, where the remainder ratio is undefined
        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        code, out, _ = run_cli(capsys, "sharpness", "--op", "cesaro", "--beta", "1", "--r", "0.5")
        assert code == 0
        rows = json.loads(out, parse_constant=reject)["results"]["rows"]
        assert rows[-1]["a"] == 1.0 and rows[-1]["remainder_ratio"] is None

    @pytest.mark.parametrize(
        "argv",
        [
            ("sharpness", "--op", "cesaro", "--beta", "1", "--r", "0.5", "--tol", "5"),
            ("selftest", "--tol", "-1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_tol_is_not_a_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_requires_radius_flag(self, capsys):
        code, _, _ = run_cli(capsys, "sharpness", "--op", "cesaro", "--beta", "1")
        assert code == 2

    def test_large_beta_finishes(self):
        # A fresh process with a timeout, so a hang fails this test instead of
        # stalling the suite.
        proc = run(("sharpness", "--op", "cesaro", "--beta", "50", "--r", "0.3",
                    "--a-values", "0.5,0.9,0.999"), timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["max_reconstruction_error"] <= 1e-9


    def test_reconstruction_rounding_on_a_huge_bound_passes(self, capsys):
        # bound_term is 2.3e13 at beta 50, r 0.5: the sum's last bits are 0.02.
        code, out, err = run_cli(
            capsys, "sharpness", "--op", "cesaro", "--beta", "50", "--r", "0.5",
            "--a-values", "0.5,0.9,0.999",
        )
        results = json.loads(out)["results"]
        assert code == 0, err
        assert 1e-9 < results["max_reconstruction_error"] <= 1e-12 * results["rows"][0]["bound_term"]


    @pytest.mark.parametrize("m", ["30", "100"])
    def test_reconstruction_over_a_tiny_bound(self, capsys, m):
        # The bound is 3.0e-11 at m 30 and 7.8e-33 at m 100: an absolute cut
        # of 1e-15 drops most or all of the weights.
        code, out, err = run_cli(capsys, "sharpness", "--op", "bernardi", "--gamma", "1",
                                 "--m", m, "--r", "0.5")
        assert code == 0, err
        for row in json.loads(out)["results"]["rows"]:
            assert row["total"] > 0.0
            assert row["reconstruction_error"] <= 1e-12 * row["bound_term"]

    def test_reconstruction_allowance_is_relative_to_a_tiny_bound(self, capsys, monkeypatch):
        import bohrlab as bl
        from bohrlab import sharpness

        decompose = sharpness.decompositions

        def skewed(problem, a_values, r):
            return [
                bl.Decomposition(dec.bound_term, dec.deficit_term, dec.remainder, dec.total * 1.001)
                for dec in decompose(problem, a_values, r)
            ]

        monkeypatch.setattr(sharpness, "decompositions", skewed)
        code, _, err = run_cli(capsys, "sharpness", "--op", "bernardi", "--gamma", "1",
                               "--m", "30", "--r", "0.5", "--a-values", "0.5")
        assert code == 5 and "min(1, bound)" in err

    def test_nan_reconstruction_error_exits_5(self, capsys, monkeypatch):
        import bohrlab as bl
        from bohrlab import sharpness

        decompose = sharpness.decompositions

        def undefined(problem, a_values, r):
            return [
                bl.Decomposition(dec.bound_term, dec.deficit_term, dec.remainder, math.nan)
                for dec in decompose(problem, a_values, r)
            ]

        monkeypatch.setattr(sharpness, "decompositions", undefined)
        code, out, _ = run_cli(capsys, "sharpness", "--op", "libera", "--r", "0.5",
                               "--a-values", "0.5", "--format", "csv")
        assert code == 5 and out.splitlines()[1].split(",")[4:6] == ["nan", "nan"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv,expected,err_line",
        [
            (("cesaro", "--beta", "1", "--r", "0.5", "--a-values", "0.5,,0.6"), 2,
             "parameter error: --a-values: could not convert string to float: ''"),
            (("cesaro", "--beta", "1", "--r", "0.5", "--a-values", "0.5,"), 2,
             "parameter error: --a-values: could not convert string to float: ''"),
            (("cesaro", "--beta", "1", "--r", "0.5", "--a-values", " "), 2,
             "parameter error: the a-grid is empty"),
            # a bad a anywhere in the grid comes before the weights' term cap
            (("cesaro", "--beta", "1", "--r", "0.99999", "--a-values", "0.5,2"), 2,
             "parameter error: a must lie in [0, 1], got 2.0"),
            (("cesaro", "--beta", "1", "--r", "0.99999", "--a-values", "0.5"), 3,
             "solver error: Cesaro weights will not reach 1e-15 within 1000000 terms at "
             "beta=1.0, r=0.99999"),
        ],
        ids=["empty-token", "trailing-comma", "blank", "bad-a-before-order-cap", "order-cap"],
    )
    def test_a_grid_refusals_write_nothing(self, capsys, tmp_path, argv, expected, err_line, fmt):
        target = tmp_path / f"report.{fmt}"
        code, out, err = run_cli(
            capsys, "sharpness", "--op", *argv, "--format", fmt, "--out", str(target)
        )
        assert code == expected and out == "" and not target.exists()
        assert err == err_line + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_grid_past_the_cap_is_refused_before_any_float(
        self, capsys, tmp_path, monkeypatch, fmt
    ):
        # cli's float also reads --r, through argparse
        parsed = []
        monkeypatch.setattr(cli, "float", lambda tok: parsed.append(tok) or builtins.float(tok),
                            raising=False)
        argv = ("sharpness", "--op", "libera", "--r", "0.6")
        target = tmp_path / f"report.{fmt}"
        a_values = ",".join(["0.5"] * (cli.MAX_GRID_POINTS + 1))
        code, out, err = run_cli(
            capsys, *argv, "--a-values", a_values, "--format", fmt, "--out", str(target)
        )
        assert code == 2 and out == "" and not target.exists()
        assert err == "parameter error: a grid holds at most 100000 points, got 100001\n"
        assert parsed == ["0.6"]
        parsed.clear()
        assert run_cli(capsys, *argv, "--a-values", "0.5,0.9")[0] == 0  # JSON reads no float
        assert parsed == ["0.6", "0.5", "0.9"]


class TestShiftedOperators:
    """``primitive`` and ``cbeta`` report their own bound, not their family's."""

    def test_primitive_above_uses_its_own_bound(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--op", "primitive", "--r-mode", "above", "--r", "0.6")
        results = json.loads(out)["results"]
        assert results["bound"] == pytest.approx(0.6)
        _, out, _ = run_cli(capsys, "verify", "--op", "libera", "--r-mode", "above", "--r", "0.6")
        libera = json.loads(out)["results"]
        assert results["majorant"] == pytest.approx(0.6 * libera["majorant"], rel=1e-13)

    def test_cbeta_above_uses_its_own_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--op", "cbeta", "--beta", "2", "--r-mode", "above", "--r", "0.55"
        )
        import bohrlab as bl

        assert code == 0
        assert json.loads(out)["results"]["bound"] == bl.sup_bound(bl.CBeta(2.0), 0.55)

    def test_verify_and_sharpness_report_one_shifted_bound(self, capsys):
        # both are r times the family's bound, the same float
        code, out, _ = run_cli(
            capsys, "verify", "--op", "cbeta", "--beta", "1", "--r-mode", "above", "--r", "0.56"
        )
        assert code == 0
        bound = json.loads(out)["results"]["bound"]
        code, out, _ = run_cli(
            capsys, "sharpness", "--op", "cbeta", "--beta", "1", "--r", "0.56", "--a-values", "0.5"
        )
        assert code == 0
        assert json.loads(out)["results"]["rows"][0]["bound_term"] == bound

    def test_sharpness_sums_one_extremal_series_per_row(self, capsys, monkeypatch):
        from bohrlab import sharpness

        calls = []
        majorant = sharpness.extremal_majorant
        monkeypatch.setattr(
            sharpness, "extremal_majorant", lambda *args: calls.append(args) or majorant(*args)
        )
        code, _, _ = run_cli(
            capsys, "sharpness", "--op", "cbeta", "--beta", "2", "--r", "0.5",
            "--a-values", "0,0.5,0.9,0.99,1",
        )
        assert code == 0 and len(calls) == 5

    def test_cbeta_sharpness_is_not_the_cesaro_table(self, capsys):
        argv = ("--beta", "2", "--r", "0.5", "--a-values", "0.5,0.9,1")
        code, cbeta, _ = run_cli(capsys, "sharpness", "--op", "cbeta", *argv)
        assert code == 0
        _, cesaro, _ = run_cli(capsys, "sharpness", "--op", "cesaro", *argv)
        for row, plain in zip(json.loads(cbeta)["results"]["rows"],
                              json.loads(cesaro)["results"]["rows"]):
            assert row["bound_term"] == 0.5 * plain["bound_term"]
            assert row["total"] == pytest.approx(0.5 * plain["total"], rel=1e-14)


class TestSelftestCommand:
    def test_seed_echo(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "777")
        assert code == 0
        assert json.loads(out)["seed"] == 777

    def test_quadrature_suite_orders_each_image_at_the_family_cut(self, capsys, monkeypatch):
        import bohrlab as bl

        calls, image = [], cli.operator_coeffs

        def recording(kind, a, n_max):
            calls.append((kind, n_max, len(a)))
            return image(kind, a, n_max)

        monkeypatch.setattr(cli, "operator_coeffs", recording)
        code, _, _ = run_cli(capsys, "selftest")
        assert code == 0
        r = abs(0.5 * complex(math.cos(0.7), math.sin(0.7)))
        assert len(calls) == 6
        for kind, n_max, width in calls:
            assert n_max == kind.s + bl.series_order(kind.family, r, 1e-13)
            assert width == n_max + 1


class TestFailurePaths:
    """Mutation checks: the failure exit codes fire when the math breaks."""

    def test_corrupted_recurrence_fails_selftest(self, capsys, monkeypatch):
        import numpy as np

        import bohrlab.series as series

        def broken(beta, n_max):
            w = np.empty(n_max + 1)
            w[0] = 1.0
            for n in range(1, n_max + 1):
                # drifting factor: the running-sum identity degrades ~ n * 1e-8
                w[n] = w[n - 1] * (n - 1 + beta) / n * (1.0 + 1e-8)
            return w

        monkeypatch.setattr(series, "binomial_coeffs", broken)
        code, out, _ = run_cli(capsys, "selftest")
        assert code != 0
        results = json.loads(out)["results"]
        identity = next(
            s for s in results["suites"] if s["suite"] == "weight-running-sum-identity"
        )
        assert identity["passed"] is False

    def test_no_witness_hairline_above_radius_exits_4(self, capsys):
        # a hair beyond the radius the extremal excess is quadratically
        # small, below the witness threshold, so the scan reports none
        import bohrlab as bl

        root = bl.solve_radius(bl.Bernardi(1.0, 0)).root
        code, _, err = run_cli(
            capsys,
            "verify",
            "--op",
            "libera",
            "--r-mode",
            "above",
            "--r",
            f"{root + 1e-12:.17g}",
        )
        assert code == 4 and "no violation witness" in err

    def test_forced_violations_exit_4_and_log_seed(self, capsys, monkeypatch):
        from bohrlab import cli as cli_mod

        # A bound far below every majorant; a zero bound sets a zero majorant cut.
        monkeypatch.setattr(cli_mod, "sup_bound", lambda kind, r: 1e-30)
        code, _, err = run_cli(
            capsys, "verify", "--op", "libera", "--samples", "10", "--seed", "3"
        )
        assert code == 4 and "seed" in err

    def test_forced_reconstruction_mismatch_exits_5(self, capsys, monkeypatch):
        import bohrlab as bl
        from bohrlab import sharpness

        decompose = sharpness.decompositions

        def skewed(problem, a_values, r):
            return [
                bl.Decomposition(dec.bound_term + 1e-6, dec.deficit_term, dec.remainder, dec.total)
                for dec in decompose(problem, a_values, r)
            ]

        monkeypatch.setattr(sharpness, "decompositions", skewed)
        code, _, err = run_cli(
            capsys, "sharpness", "--op", "cesaro", "--beta", "1", "--r", "0.5"
        )
        assert code == 5 and "reconstruction" in err


# (first refused flag, argv): an operator flag the chosen --op does not take.
FOREIGN_FLAGS = [
    ("gamma", ("radius", "--op", "libera", "--gamma", "5", "--m", "3")),
    ("m", ("radius", "--op", "cesaro", "--beta", "1", "--m", "4")),
    ("beta", ("radius", "--op", "bernardi", "--gamma", "1", "--beta", "3")),
    ("beta", ("verify", "--op", "bohr", "--beta", "3")),
    ("m", ("verify", "--op", "cbeta", "--beta", "2", "--m", "1", "--r-mode", "above")),
    ("m", ("curve", "--op", "cesaro", "--m", "2", "--grid-values", "1")),
    ("gamma", ("sharpness", "--op", "alexander", "--gamma", "0", "--r", "0.5")),
]


@pytest.mark.parametrize("flag,argv", FOREIGN_FLAGS, ids=[" ".join(a) for _, a in FOREIGN_FLAGS])
def test_foreign_operator_flag_exits_2_before_any_solve(capsys, monkeypatch, flag, argv):
    from bohrlab import sharpness

    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite a refused flag")

    for module, name in ((cli, "solve_radius"), (cli, "radius_curve"), (sharpness, "solve_radius")):
        monkeypatch.setattr(module, name, no_solve)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"parameter error: --{flag} does not apply to --op {argv[2]}")
    assert len(err.strip().splitlines()) == 1


# A solver error (exit 3) leaving no file is TestSharpnessCommand's order-cap case.
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv,expected", [(("radius", "--op", "cesaro", "--beta", "-1"), 2)], ids=["domain-error"]
)
def test_failed_command_leaves_no_file(tmp_path, capsys, argv, expected, fmt):
    target = tmp_path / f"report.{fmt}"
    code, out, _ = run_cli(capsys, *argv, "--format", fmt, "--out", str(target))
    assert code == expected and out == ""
    assert not target.exists()


def _curve_report(points: int) -> tuple:
    """A ``curve`` report of ``points`` rows, as its handler returns it."""
    grid = [0.05 + i * 0.0025 for i in range(points)]
    rows = [{"param": v, "root": 1 / 3 + 2 / (3 * v), "residual": -1.1e-16} for v in grid]
    return {"op": "cesaro", "grid": grid}, {"rows": rows}, tuple(rows[0]), rows


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_streams_in_bounded_memory(tmp_path, fmt):
    # A 20,000-row curve report is about 0.9 MB in CSV and 2.3 MB in JSON;
    # writing it allocates a bounded buffer, not a copy of its text.
    report = _curve_report(20_000)
    args = argparse.Namespace(
        command="curve", format=fmt, out=str(tmp_path / f"curve.{fmt}"), seed=0
    )
    tracemalloc.start()
    try:
        cli._emit(args, *report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with open(args.out, encoding="utf-8", newline="") as fh:
        written = fh.read()
    rows = report[-1]
    if fmt == "json":
        assert json.loads(written)["results"]["rows"] == rows
    else:
        assert written.count("\r\n") == len(rows) + 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unbuffered_stdout_takes_the_report_in_blocks(monkeypatch, fmt):
    # Under PYTHONUNBUFFERED every write to sys.stdout reaches its byte layer
    # at once; the report's many small pieces must not each become one write.
    class CountingBytes(io.BytesIO):
        writes = 0

        def write(self, data):
            self.writes += 1
            return super().write(data)

    raw = CountingBytes()
    stdout = io.TextIOWrapper(raw, encoding="utf-8", newline="", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    args = argparse.Namespace(command="curve", format=fmt, out=None, seed=0)
    cli._emit(args, *_curve_report(2000))
    assert not stdout.closed
    size = len(raw.getvalue())
    assert size > 1 << 16 and raw.writes <= size // 8192 + 2



# A verify golden, a curve golden and a refused row of cli_checks.CHECKS.
CONSOLE_ROWS = [
    next(row for row in CHECKS if row.golden == "verify_cesaro_below.json"),
    next(row for row in CHECKS if row.golden == "curve_cesaro.csv"),
    next(row for row in CHECKS if row.exit == 2),
]


@pytest.mark.parametrize("row", CONSOLE_ROWS, ids=lambda row: " ".join(row.argv[:3]))
def test_console_process_writes_what_the_in_process_call_writes(tmp_path, capsysbinary, row):
    # main() freezes the collector only as the process's own command (argv None).
    frozen = gc.get_freeze_count()
    inside, fresh = tmp_path / "in-process", tmp_path / "fresh"
    for in_argv, fresh_argv in ((row.argv, row.argv),
                                ((*row.argv, "--out", str(inside)),
                                 (*row.argv, "--out", str(fresh)))):
        code = cli.main(list(in_argv))
        assert gc.get_freeze_count() == frozen
        captured = capsysbinary.readouterr()
        proc = run(fresh_argv, row.timeout)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert code == row.exit
    if row.exit == 0:
        assert fresh.read_bytes() == inside.read_bytes()
    else:
        assert not fresh.exists() and not inside.exists()


# main() as the process's command, then the freeze count, whatever main raised.
PROBE = """import gc, sys
from bohrlab.cli import main
try:
    code = main()
finally:
    sys.stderr.write(f"frozen {gc.get_freeze_count() > 0}\\n")
sys.exit(code)
"""


@pytest.mark.parametrize("argv,code", [
    (("radius", "--op", "libera"), 0),
    (("radius", "--op", "libera", "--gamma", "5"), 2),  # refused by main
    (("radius", "--op", "nosuch"), 2),  # refused by argparse: SystemExit
], ids=["ok", "refused", "usage"])
def test_console_command_freezes_the_collector_on_every_path(argv, code):
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv, "--out", os.devnull],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True)
    assert proc.returncode == code
    assert proc.stderr.splitlines()[-1] == b"frozen True"
