"""Command-line surface tests: exit codes, report schemas, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bohrlab import cli

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRadiusCommand:
    def test_cesaro_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "--op", "cesaro", "--beta", "1")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"command", "params", "results", "seed", "version"}
        assert abs(payload["results"]["root"] - 0.5335) <= 1e-3
        assert abs(payload["results"]["residual"]) < 1e-12

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

    def test_missing_beta_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "radius", "--op", "cesaro")
        assert code == 2

    @pytest.mark.parametrize("gamma,m", [("1e-9", "0"), ("-0.999", "1")])
    def test_corner_refused_with_exit_2(self, capsys, gamma, m):
        code, out, err = run_cli(capsys, "radius", "--op", "bernardi", "--gamma", gamma, "--m", m)
        assert code == 2 and out == ""
        assert "refused" in err and "exp(-1/(2(m+gamma)))" in err

    def test_gamma_above_the_old_limit_refused_with_exit_2(self, capsys):
        # root >= 1 - exp(-12.5), above 1 - 2**-15, the last ladder point the
        # 10**6-term tail reaches
        code, out, err = run_cli(capsys, "radius", "--op", "bernardi", "--gamma", "0.04", "--m", "0")
        assert code == 2 and out == ""
        assert "refused" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["radius", "verify"])
    def test_large_beta_exits_2_with_one_line(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--op", "cesaro", "--beta", "1100")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert "beta=1100" in err and "r=" in err

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
        # gamma < 0 the tail bounds r**n/((n+gamma)(1-r)) below n = m are
        # negative or divide by zero; the cut must start past them.
        import bohrlab as bl

        code, out, _ = run_cli(capsys, "verify", "--op", *flags, "--samples", "5")
        assert code == 0
        payload = json.loads(out)
        order, r = payload["results"]["coefficient_order"], payload["params"]["r"]
        args = cli._build_parser().parse_args(["verify", "--op", *flags])
        kind = cli._operator_kind(args)
        eps = 1e-12 * min(1.0, bl.sup_bound(kind, r))  # the cut scales with a bound below 1
        assert order == kind.d + len(kind.family.weights(r, eps)) - 1
        psi = bl.ExtremalPsi(0.9, bl.required_origin_zeros(kind))
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
        first = next(i for i, f in enumerate(members) if not f.zeros and f.scale == 1.0)
        bound = cli.sup_bound
        monkeypatch.setattr(cli, "sup_bound", lambda kind, r: bound(kind, r) * (1.0 - 1e-9))
        code, out, _ = run_cli(
            capsys, "verify", "--op", "cesaro", "--beta", "300", "--samples", str(first + 1)
        )
        results = json.loads(out)["results"]
        assert code == 4 and results["first_violation"]["index"] == first

    @pytest.mark.parametrize("beta", ["440", "500"])
    def test_cesaro_weight_overflow_is_refused_at_once(self, capsys, beta):
        # c_n(beta+1) overflows before the majorant tail reaches the cut.
        code, out, err = run_cli(capsys, "verify", "--op", "cesaro", "--beta", beta,
                                 "--samples", "5")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"beta={beta}.0" in err and "r=" in err

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
        monkeypatch.setattr(
            cli, "majorant_values",
            lambda kind, coeffs, r, eps: [1.01 * cli.sup_bound(kind, r)] * len(coeffs),
        )
        code, out, _ = run_cli(capsys, "verify", "--op", "bernardi", "--gamma", str(gamma),
                               "--samples", "5")
        results = json.loads(out)["results"]
        assert results["bound"] == pytest.approx(1.0 / gamma, rel=1e-9)
        assert code == 4 and results["violations"] == 5

    def test_determinism_bytes(self, capsys):
        argv = ("verify", "--op", "libera", "--samples", "30", "--seed", "123")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestSharpnessCommand:
    def test_table_and_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sharpness",
            "--op",
            "cesaro",
            "--beta",
            "1",
            "--r",
            "0.5",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["a", "bound_term", "deficit_term", "remainder", "total"]
        # the a = 1 row is exact: zero deficit and remainder
        last = lines[-1].split(",")
        assert float(last[2]) == 0.0 and float(last[3]) == 0.0

    def test_positive_deficit_below_radius(self, capsys):
        code, out, _ = run_cli(
            capsys, "sharpness", "--op", "libera", "--r", "0.5"
        )
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert all(row["deficit_term"] > 0 for row in rows if row["a"] < 1.0)

    def test_requires_radius_flag(self, capsys):
        code, _, _ = run_cli(capsys, "sharpness", "--op", "cesaro", "--beta", "1")
        assert code == 2

    def test_large_beta_finishes(self):
        # A subprocess with a timeout, so a hang fails this test instead of
        # stalling the suite.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from bohrlab.cli import main; sys.exit(main())",
             "sharpness", "--op", "cesaro", "--beta", "50", "--r", "0.3",
             "--a-values", "0.5,0.9,0.999"],
            env=env, capture_output=True, text=True, timeout=20,
        )
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
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["all_passed"] is True
        assert {s["suite"] for s in results["suites"]} == {
            "weight-running-sum-identity",
            "envelope-concavity",
            "coefficient-slack",
            "series-vs-quadrature",
        }

    def test_seed_echo(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "777")
        assert code == 0
        assert json.loads(out)["seed"] == 777


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

        root = bl.solve_radius(bl.RadiusProblem(bl.Bernardi(1.0, 0))).root
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

        decompose = sharpness.decomposition

        def skewed(problem, a, r, eps=1e-12):
            dec = decompose(problem, a, r, eps)
            return bl.Decomposition(
                dec.bound_term + 1e-6, dec.deficit_term, dec.remainder, dec.total
            )

        monkeypatch.setattr(sharpness, "decomposition", skewed)
        code, _, err = run_cli(
            capsys, "sharpness", "--op", "cesaro", "--beta", "1", "--r", "0.5"
        )
        assert code == 5 and "reconstruction" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "radius", "--op", "cesaro", "--beta", "1", "--out", str(target)
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "radius"


def test_csv_uses_17_significant_digits(capsys):
    code, out, _ = run_cli(
        capsys, "radius", "--op", "libera", "--format", "csv"
    )
    assert code == 0
    root_text = out.strip().splitlines()[1].split(",")[0]
    assert float(root_text) == pytest.approx(0.5828116438658134, abs=1e-15)
    assert len(root_text.replace("0.", "")) >= 16
