"""Radius-equation tests: closed bounds, stable equation evaluation, the
certified solver against independent root oracles, and parameter sweeps."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import bohrlab as bl
from bohrlab.errors import BracketError, ParameterDomainError
from test_radii_oracle import solved_family


def _libera_equation(x: float) -> float:
    return 3.0 * x + 2.0 * math.log(1.0 - x)


def _cesaro_one_equation(x: float) -> float:
    return 2.0 * x - 3.0 * (1.0 - x) * math.log(1.0 / (1.0 - x))


# Roots frozen from independent Brent solves of the displayed closed forms.
LIBERA_ROOT = brentq(_libera_equation, 0.1, 0.9, xtol=1e-14)
CESARO_ONE_ROOT = brentq(_cesaro_one_equation, 0.1, 0.9, xtol=1e-14)


class TestClosedBound:
    def test_logarithmic_case(self):
        family = bl.CesaroBeta(1.0)
        assert bl.sup_bound(family, 0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-14)

    def test_rational_case_is_exact(self):
        assert abs(bl.sup_bound(bl.CesaroBeta(2.0), 0.5) - 2.0) <= 1e-14

    def test_bernardi_unit_bound(self):
        for r in (0.1, 0.46, 0.83):
            assert bl.sup_bound(bl.Bernardi(1.0, 0), r) == 1.0


class TestRadiusEquation:
    def test_near_root_at_published_digits(self):
        family = bl.CesaroBeta(1.0)
        assert abs(bl.radius_equation(family, 0.5335)) <= 2e-3

    def test_libera_form_matches_closed_log(self):
        family = bl.Bernardi(1.0, 0)
        for x in np.linspace(0.05, 0.95, 50):
            summed = bl.radius_equation(family, x)
            closed = _libera_equation(x) / x
            assert summed == pytest.approx(closed, abs=1e-10)

    def test_alexander_form_matches_closed_log(self):
        # Alexander's family is Libera's: the same closed form
        family = bl.Bernardi(0.0, 1).family
        for x in np.linspace(0.05, 0.95, 25):
            closed = (3.0 * x + 2.0 * math.log(1.0 - x)) / x
            assert bl.radius_equation(family, x) == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize(
        "family",
        [bl.CesaroBeta(0.5), bl.CesaroBeta(1.0), bl.CesaroBeta(3.0), solved_family(1.0, 0)],
        ids=str,
    )
    def test_positive_near_origin(self, family):
        assert bl.radius_equation(family, 1e-4) > 0.0

    def test_cesaro_leading_behaviour_is_linear(self):
        # 3 A(beta) - 2 A(beta+1) = x + O(x^2) for every beta
        for beta in (0.5, 1.0, 3.0):
            family = bl.CesaroBeta(beta)
            assert bl.radius_equation(family, 1e-4) == pytest.approx(1e-4, rel=1e-2)

    def test_limit_form_continuity(self):
        # the true beta-derivative of the equation reaches about -68 at
        # x = 0.95, so the window must scale with |beta - 1|
        base = bl.CesaroBeta(1.0)
        for beta in (1.0 - 1e-7, 1.0 + 1e-7):
            shifted = bl.CesaroBeta(beta)
            for x in np.linspace(0.05, 0.85, 17):
                assert abs(
                    bl.radius_equation(shifted, x) - bl.radius_equation(base, x)
                ) <= 1e-6
            for x in np.linspace(0.86, 0.95, 5):
                assert abs(
                    bl.radius_equation(shifted, x) - bl.radius_equation(base, x)
                ) <= 80.0 * abs(beta - 1.0)

    def test_domain(self):
        family = bl.CesaroBeta(1.0)
        with pytest.raises(ParameterDomainError):
            bl.radius_equation(family, 0.0)
        with pytest.raises(ParameterDomainError):
            bl.radius_equation(family, 1.0)


class TestSolveRadius:
    def test_cesaro_one_against_brent_oracle(self):
        result = bl.solve_radius(bl.CesaroBeta(1.0))
        assert result.root == pytest.approx(CESARO_ONE_ROOT, abs=1e-10)
        assert abs(result.root - 0.5335) <= 1e-3
        assert abs(result.residual) < 1e-12

    def test_libera_against_brent_oracle(self):
        result = bl.solve_radius(bl.Bernardi(1.0, 0))
        assert result.root == pytest.approx(LIBERA_ROOT, abs=1e-10)
        assert abs(result.root - 0.5828) <= 1e-3

    def test_alexander_shares_the_libera_root(self):
        result = bl.solve_radius(bl.Bernardi(0.0, 1).family)
        assert result.root == pytest.approx(LIBERA_ROOT, abs=1e-10)

    def test_quadratic_beta_root_is_half(self):
        # at beta = 2 the equation reduces to x(1-2x)/(1-x)^2
        result = bl.solve_radius(bl.CesaroBeta(2.0))
        assert result.root == pytest.approx(0.5, abs=1e-12)

    def test_half_beta_root_is_five_ninths(self):
        # at beta = 1/2 the substitution s = sqrt(1-x) gives 6s^2 - 10s + 4 = 0
        result = bl.solve_radius(bl.CesaroBeta(0.5))
        assert result.root == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_tiny_beta_still_solves(self):
        result = bl.solve_radius(bl.CesaroBeta(1e-12))
        assert 0.0 < result.root < 1.0
        # the limiting equation is the Libera one
        assert result.root == pytest.approx(LIBERA_ROOT, abs=1e-6)

    @pytest.mark.parametrize(
        "family",
        [
            bl.CesaroBeta(0.25),
            bl.CesaroBeta(1.0),
            bl.CesaroBeta(4.0),
            solved_family(1.0, 0),
            solved_family(0.0, 1),
            solved_family(2.0, 1),
            solved_family(-0.5, 1),
        ],
        ids=str,
    )
    def test_bracket_certificate(self, family):
        tol = 1e-12
        result = bl.solve_radius(family, tol)
        lo, hi = result.bracket
        assert lo <= result.root <= hi and hi - lo <= tol
        assert bl.radius_equation(family, result.root - tol) > 0.0
        assert bl.radius_equation(family, result.root + tol) < 0.0
        assert 0.0 < result.root < 1.0

    def test_tolerance_floor(self):
        with pytest.raises(ParameterDomainError):
            bl.solve_radius(bl.CesaroBeta(1.0), 1e-16)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_nonfinite_tolerance(self, tol):
        with pytest.raises(ParameterDomainError, match="finite"):
            bl.solve_radius(bl.CesaroBeta(1.0), tol)

    @pytest.mark.parametrize("kind", [bl.ClassicalBohr(), bl.CBeta(1.0)], ids=str)
    def test_only_radius_families_are_solved(self, kind):
        with pytest.raises(ParameterDomainError, match="Cesaro or Bernardi"):
            bl.solve_radius(kind)


class TestRadiusCurve:
    def test_limit_window_is_flat(self):
        betas = (0.999999, 1.0, 1.000001)
        rows = bl.radius_curve((b, bl.CesaroBeta(b)) for b in betas)
        roots = [row.root for row in rows]
        assert max(roots) - min(roots) <= 1e-4

    def test_window_reproduces_published_digits(self):
        rows = bl.radius_curve(
            (b, bl.CesaroBeta(b)) for b in (0.9, 1.0, 1.1)
        )
        middle = rows[1]
        assert abs(middle.root - 0.5335) <= 1e-3

    def test_bernardi_grid_hits_libera(self):
        rows = bl.radius_curve([(1.0, bl.Bernardi(1.0, 0))])
        assert abs(rows[0].root - 0.5828) <= 1e-3

    def test_empty_sweep(self):
        assert bl.radius_curve([]) == []

    def test_decreasing_trend_in_beta(self):
        rows = bl.radius_curve(
            (b, bl.CesaroBeta(b)) for b in np.linspace(0.5, 3.0, 11)
        )
        roots = [row.root for row in rows]
        assert all(b >= a for a, b in zip(roots[1:], roots))  # larger beta, smaller radius


class TestBoundConsistency:
    """The absolute series stays below the closed bound up to the root."""

    @pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
    def test_cesaro_corpus_below_bound(self, beta):
        family = bl.CesaroBeta(beta)
        root = bl.solve_radius(family).root
        for frac in (0.35, 0.7, 0.99):
            r = frac * root
            bound = bl.sup_bound(family, r)
            for i in range(12):
                f = bl.random_schur(bl.derive_seed(555, i), 4, 0.9)
                coeffs = bl.taylor_coeffs(f, 160)
                assert bl.majorant_value(family, coeffs, r) <= bound + 1e-9

    @pytest.mark.parametrize("gamma,m", [(1.0, 0), (0.0, 1)])
    def test_bernardi_corpus_below_bound(self, gamma, m):
        kind = bl.Bernardi(gamma, m)
        root = bl.solve_radius(kind.family).root
        r = 0.99 * root
        bound = bl.sup_bound(kind, r)
        for i in range(12):
            f = bl.multiply_by_z(bl.random_schur(bl.derive_seed(556, i), 4, 0.9), m)
            coeffs = bl.taylor_coeffs(f, 160)
            assert bl.majorant_value(kind, coeffs, r) <= bound + 1e-9
