"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import json
import math
import time

import numpy as np
import pytest

import bohrlab as bl
from bohrlab import cli
from oracles import quadratic_remainder_check


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _run_cli_json(tmp_path, *argv):
    out = tmp_path / "report.json"
    t0 = time.perf_counter()
    code = cli.main([*argv, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    payload = json.loads(out.read_text()) if code == 0 else None
    return code, payload, elapsed


def test_criterion_01_cesaro_radius(tmp_path):
    code, payload, elapsed = _run_cli_json(
        tmp_path, "radius", "--op", "cesaro", "--beta", "1"
    )
    root = payload["results"]["root"]
    residual = abs(payload["results"]["residual"])
    ok = (
        code == 0
        and abs(root - 0.5335) <= 1e-3
        and residual < 1e-12
        and elapsed < 0.1
    )
    _criterion(
        "cesaro-radius-beta-1",
        ok,
        f"root={root:.10f} residual={residual:.2e} time={elapsed*1e3:.1f}ms",
    )


def test_criterion_02_libera_radius(tmp_path):
    code, payload, elapsed = _run_cli_json(
        tmp_path, "radius", "--op", "bernardi", "--gamma", "1", "--m", "0"
    )
    root = payload["results"]["root"]
    family = bl.Bernardi(1.0, 0)
    worst = max(
        abs(bl.radius_equation(family, x) - (3.0 * x + 2.0 * math.log(1.0 - x)) / x)
        for x in np.linspace(0.05, 0.95, 50)
    )
    ok = (
        code == 0
        and abs(root - 0.5828) <= 1e-3
        and worst <= 1e-10
        and elapsed < 0.1
    )
    _criterion(
        "libera-radius",
        ok,
        f"root={root:.10f} closed-form-defect={worst:.2e} time={elapsed*1e3:.1f}ms",
    )


def test_criterion_03_alexander_radius(tmp_path):
    code, payload, _ = _run_cli_json(
        tmp_path, "radius", "--op", "bernardi", "--gamma", "0", "--m", "1"
    )
    root = payload["results"]["root"]
    ok = code == 0 and abs(root - 0.5828) <= 1e-3
    _criterion("alexander-radius", ok, f"root={root:.10f}")


def test_criterion_04_beta_limit_continuity():
    roots = [
        bl.solve_radius(bl.CesaroBeta(b)).root
        for b in (1.0 - 1e-6, 1.0, 1.0 + 1e-6)
    ]
    spread = max(roots) - min(roots)
    _criterion(
        "beta-limit-continuity",
        spread <= 1e-4,
        f"roots spread={spread:.2e} across beta in {{1-1e-6, 1, 1+1e-6}}",
    )


def test_criterion_05_running_sum_identity():
    worst = max(
        bl.cumulative_identity_residual(beta, 200)
        for beta in (0.3, 0.5, 1.0, 2.0, 3.7, 10.0)
    )
    _criterion(
        "weight-running-sum-identity", worst <= 1e-12, f"max residual={worst:.2e}"
    )


def test_criterion_06_inequality_sweep(tmp_path):
    t0 = time.perf_counter()
    total_violations = 0
    runs = []
    for flags in (
        ("--op", "cesaro", "--beta", "0.5"),
        ("--op", "cesaro", "--beta", "1"),
        ("--op", "cesaro", "--beta", "2"),
        ("--op", "bernardi", "--gamma", "1", "--m", "0"),
        ("--op", "bernardi", "--gamma", "0", "--m", "1"),
        ("--op", "bernardi", "--gamma", "2", "--m", "1"),
    ):
        code, payload, _ = _run_cli_json(
            tmp_path,
            "verify",
            *flags,
            "--samples",
            "1000",
            "--seed",
            "2026",
            "--r-mode",
            "below",
        )
        assert code == 0, f"verify exited {code} for {flags}"
        total_violations += payload["results"]["violations"]
        runs.append(payload["results"]["max_excess"])
    elapsed = time.perf_counter() - t0
    ok = total_violations == 0 and elapsed < 60.0
    _criterion(
        "inequality-sweep-6000",
        ok,
        f"violations={total_violations} worst-excess={max(runs):.2e} time={elapsed:.1f}s",
    )


def test_criterion_07_sharpness_witnesses():
    reports = {
        "cesaro-beta-1@0.55": bl.violation_search(bl.CesaroBeta(1.0), 0.55),
        "libera@0.60": bl.violation_search(bl.Bernardi(1.0, 0), 0.60),
        "classical-third@0.40": bl.violation_search(bl.ClassicalBohr(), 0.40),
    }
    ok = all(rep.found for rep in reports.values())
    detail = ", ".join(
        f"{name}: a={rep.witness} margin={rep.margin:.2e}"
        for name, rep in reports.items()
    )
    _criterion("sharpness-witnesses", ok, detail)


def test_criterion_08_decomposition_reconstruction():
    rng = np.random.default_rng(80808)
    worst_cesaro = 0.0
    for _ in range(100):
        beta = float(rng.uniform(0.2, 3.0))
        a = float(rng.uniform(0.0, 0.999))
        r = float(rng.uniform(0.05, 0.85))
        dec = bl.decomposition_cesaro(beta, a, r)
        worst_cesaro = max(worst_cesaro, dec.reconstruction_error)
    worst_bernardi = 0.0
    for _ in range(100):
        m = int(rng.integers(0, 3))
        gamma = float(rng.uniform(-m + 0.1, 4.0))
        a = float(rng.uniform(0.0, 0.999))
        r = float(rng.uniform(0.05, 0.85))
        dec = bl.decomposition_bernardi(gamma, m, a, r)
        worst_bernardi = max(worst_bernardi, dec.reconstruction_error)
    ok = worst_cesaro <= 1e-10 and worst_bernardi <= 1e-10
    _criterion(
        "decomposition-reconstruction",
        ok,
        f"worst cesaro={worst_cesaro:.2e} bernardi={worst_bernardi:.2e} over 100+100 draws",
    )


def test_criterion_09_quadratic_remainder():
    triple = (0.9, 0.99, 0.999)
    spreads = {}
    for name, problem, r in (
        ("cesaro-1@0.6", bl.CesaroBeta(1.0), 0.6),
        ("cesaro-0.5@0.4", bl.CesaroBeta(0.5), 0.4),
        ("libera@0.7", bl.Bernardi(1.0, 0), 0.7),
        ("alexander@0.7", bl.Bernardi(0.0, 1), 0.7),
    ):
        ratios = quadratic_remainder_check(problem, r, triple)
        mags = [abs(x) for x in ratios]
        spreads[name] = max(mags) / min(mags)
    ok = all(spread <= 4.0 for spread in spreads.values())
    detail = ", ".join(f"{k}: spread={v:.3f}" for k, v in spreads.items())
    _criterion("quadratic-remainder", ok, detail)


def test_criterion_10_oracle_equivalence():
    corpus = (
        bl.Blaschke((), 0.6 - 0.2j),
        bl.Blaschke((0.5, -0.3j), complex(math.cos(0.8), math.sin(0.8)) * 0.9),
        bl.Blaschke((0.6,)),
        bl.Blaschke((0j, 0j, 0.5)),
    )
    kinds = (
        bl.CesaroBeta(0.7),
        bl.CBeta(1.3),
        bl.Bernardi(0.5, 1),
        bl.Libera(),
        bl.Alexander(),
        bl.PrimitiveI(),
    )
    z = 0.5 * complex(math.cos(0.9), math.sin(0.9))
    worst = 0.0
    for kind in kinds:
        for f in corpus:
            g = bl.multiply_by_z(f, kind.d)
            order = kind.s + bl.series_order(kind.family, abs(z), 1e-13)
            image = bl.operator_coeffs(kind, bl.taylor_coeffs(g, order), order)
            gap = abs(bl.horner(image, z) - bl.quadrature_value(kind, g, z, 1e-10))
            worst = max(worst, gap)
    bound_gap = abs(bl.sup_bound(bl.CesaroBeta(2.0), 0.5) - 2.0)
    ok = worst <= 1e-8 and bound_gap <= 1e-14
    _criterion(
        "series-vs-quadrature",
        ok,
        f"worst gap={worst:.2e} over "
        f"{len(kinds)}x{len(corpus)} pairs; rational bound gap={bound_gap:.2e}",
    )


def test_criterion_11_envelope_concavity():
    grid = [k / 100.0 for k in range(100)]
    worst = -math.inf
    for beta in (0.5, 1.0, 2.0):
        for r in (0.3, 0.5, 0.8):
            worst = max(worst, bl.concavity_check(bl.CesaroBeta(beta), r, grid))
    for gamma, m in ((1.0, 0), (0.0, 1), (2.0, 1)):
        for r in (0.3, 0.5, 0.8):
            worst = max(worst, bl.concavity_check(bl.Bernardi(gamma, m), r, grid))
    _criterion(
        "envelope-concavity", worst <= 1e-10, f"max second difference={worst:.2e}"
    )
