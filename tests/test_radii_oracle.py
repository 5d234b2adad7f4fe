"""Radii against an independent 40-digit oracle, and the solver's contract.

The oracle solves each radius equation with ``mpmath.findroot`` at 40
digits, from forms the library does not use: the Cesaro equation times
``(1-x)**beta`` in closed form, and the Bernardi equation over ``x**m``
with its tail as the hypergeometric sum
``sum_{n>=0} x**n/(n+c) = 2F1(1, c; c+1; x)/c``.  Every root lies in
(1/3, 1), so one fixed bracket serves every case.
"""

import functools
import math

import mpmath
import pytest

import bohrlab as bl
from bohrlab import radii
from bohrlab.errors import ParameterDomainError

ORACLE_BRACKET = ("0.3", "0.999999999")

BETAS = (1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.7, 7.0, 10.0, 20.0, 45.0, 50.0,
         100.0, 300.0, 1e3)

# (gamma, m): the benchmark grid ends, gamma = 0.06 (root 0.99978, the
# highest below the refused corners), large gamma, where the equation's
# scale 1/(m+gamma) is small, and large m, where x**m leaves the normal
# float range at the first ladder point (m = 52, 100) or near the root
# (m = 1000).
BERNARDI = ((0.06, 0), (0.1, 0), (0.15, 0), (0.3, 0), (0.5, 0), (1.0, 0), (2.0, 0), (8.0, 0),
            (30.0, 0), (100.0, 0), (0.0, 1), (-0.85, 1), (-0.5, 1), (0.5, 1), (2.0, 1),
            (8.0, 1), (100.0, 1), (-2.85, 3), (-2.5, 3), (-1.0, 3), (0.0, 3), (2.0, 3),
            (8.0, 3), (30.0, 3), (100.0, 3), (1.0, 52), (1.0, 100), (1.0, 1000))

CORNERS = ((1e-9, 0), (-0.999, 1))


def cesaro_scaled(beta):
    """``(1-x)**beta * (3 A(beta, x) - 2 A(beta+1, x))``: the same root, moderate values."""

    def equation(x):
        b, y = mpmath.mpf(beta), 1 - x
        yb = y**b
        a = -y * mpmath.log(y) if b == 1 else (y - yb) / (b - 1)
        return 3 * a - 2 * (1 - yb) / b

    return equation


def bernardi_scaled(gamma, m):
    """``1/(m+gamma) - 2 x sum_{n>=0} x**n/(n+m+1+gamma)``, the equation over ``x**m``."""

    def equation(x):
        s = mpmath.mpf(m) + mpmath.mpf(gamma)
        return 1 / s - 2 * x * mpmath.hyp2f1(1, s + 1, s + 2, x) / (s + 1)

    return equation


def oracle_root(equation):
    with mpmath.workdps(40):
        lo, hi = (mpmath.mpf(v) for v in ORACLE_BRACKET)
        return mpmath.findroot(equation, (lo, hi), solver="anderson")


@functools.lru_cache(maxsize=None)
def solved(family):
    return bl.solve_radius(bl.RadiusProblem(family))


def assert_bracket_contains(family, root):
    result = solved(family)
    lo, hi = result.bracket
    assert lo <= root <= hi, (result, mpmath.nstr(root, 20))
    assert abs(result.root - root) <= 1e-12


class TestOracle:
    @pytest.mark.parametrize("beta", BETAS)
    def test_cesaro_bracket_contains_the_root(self, beta):
        assert_bracket_contains(bl.CesaroBeta(beta), oracle_root(cesaro_scaled(beta)))

    @pytest.mark.parametrize("gamma,m", BERNARDI)
    def test_bernardi_bracket_contains_the_root(self, gamma, m):
        assert_bracket_contains(bl.Bernardi(gamma, m), oracle_root(bernardi_scaled(gamma, m)))

    def test_gamma_006_root_is_near_one(self):
        assert abs(oracle_root(bernardi_scaled(0.06, 0)) - 0.99978) < 1e-5

    def test_large_beta_tends_to_bohr_third(self):
        third = mpmath.mpf(1) / 3
        roots = [solved(bl.CesaroBeta(b)).root for b in (10.0, 100.0, 1e3)]
        assert roots == sorted(roots, reverse=True)
        for beta, root in zip((10.0, 100.0, 1e3), roots):
            assert 0.0 < root - 1.0 / 3.0 <= 1.0 / beta
        assert 0 < oracle_root(cesaro_scaled(1e6)) - third <= 1e-6

    @pytest.mark.parametrize("gamma,m", [gm for gm in BERNARDI if gm[0] + gm[1] < 1.0])
    def test_refusal_floor_holds_where_the_solver_works(self, gamma, m):
        # the bound behind the corner refusal: R >= 1 - exp(-1/(2(m+gamma)))
        assert solved(bl.Bernardi(gamma, m)).root >= 1.0 - math.exp(-0.5 / (m + gamma))


def linear_scan(eq):
    """The ladder pair a left-to-right scan finds: the first non-positive
    point and the point before it."""
    for lo, hi in zip(radii._LADDER, radii._LADDER[1:]):
        if eq(hi) <= 0.0:
            return lo, hi
    return None


def grid(lo, hi, points):
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points)]


# The radius-sweep benchmark grids.
BENCHMARK_GRIDS = {
    "cesaro": [bl.CesaroBeta(b) for b in grid(0.05, 50.0, 2000)],
    "bernardi-m0": [bl.Bernardi(g, 0) for g in grid(0.15, 8.0, 600)],
    "bernardi-m1": [bl.Bernardi(g, 1) for g in grid(-0.85, 8.0, 600)],
    "bernardi-m3": [bl.Bernardi(g, 3) for g in grid(-2.85, 8.0, 600)],
}

CONTRACT_FAMILIES = (
    bl.CesaroBeta(0.05), bl.CesaroBeta(1.0), bl.CesaroBeta(2.0), bl.CesaroBeta(50.0),
    bl.CesaroBeta(1e3), bl.Bernardi(0.15, 0), bl.Bernardi(1.0, 0),
    bl.Bernardi(8.0, 0), bl.Bernardi(-0.85, 1), bl.Bernardi(0.0, 1), bl.Bernardi(-2.85, 3),
    bl.Bernardi(8.0, 3),
)


class TestSolverContract:
    @pytest.mark.parametrize("tol", (1e-14, 1e-12, 1e-8, 1e-3))
    @pytest.mark.parametrize("family", CONTRACT_FAMILIES, ids=str)
    def test_sign_change_bracket_of_width_tol(self, family, tol):
        problem = bl.RadiusProblem(family)
        result = bl.solve_radius(problem, tol)
        lo, hi = result.bracket
        assert bl.radius_equation(problem, lo) > 0.0 >= bl.radius_equation(problem, hi)
        assert hi - lo <= tol
        assert lo <= result.root <= hi

    @pytest.mark.parametrize("tol", (1e-14, 1e-12, 1e-8, 1e-3))
    @pytest.mark.parametrize("family", CONTRACT_FAMILIES, ids=str)
    def test_iterations_within_the_itp_bound(self, family, tol):
        problem = bl.RadiusProblem(family)
        lo, hi = linear_scan(lambda x: bl.radius_equation(problem, x))
        bound = max(math.ceil(math.log2((hi - lo) / tol)), 0) + radii._ITP_N0
        assert bl.solve_radius(problem, tol).iterations <= bound

    @pytest.mark.parametrize("name", BENCHMARK_GRIDS)
    def test_ladder_search_matches_the_linear_scan(self, name):
        for family in BENCHMARK_GRIDS[name]:
            problem = bl.RadiusProblem(family)
            eq = lambda x: bl.radius_equation(problem, x)  # noqa: E731
            lo, _, hi, _ = radii._ladder_bracket(eq)
            assert (lo, hi) == linear_scan(eq), family

    def test_ladder_search_stays_below_the_first_nonpositive_point(self):
        for family in (bl.Bernardi(0.06, 0), bl.Bernardi(0.15, 0), bl.CesaroBeta(45.0)):
            problem = bl.RadiusProblem(family)
            seen = []
            eq = lambda x: seen.append(x) or bl.radius_equation(problem, x)  # noqa: E731
            _, _, hi, _ = radii._ladder_bracket(eq)
            assert max(seen) == hi

    @pytest.mark.parametrize("gamma,m", [(0.04, 0), (-0.96, 1), (-2.96, 3)])
    def test_root_beyond_the_reachable_ladder_refused(self, gamma, m, monkeypatch):
        # m + gamma = 0.04: the root floor 1 - exp(-12.5) lies above every
        # ladder point the 10**6-term tail can reach
        calls = []
        equation = radii.radius_equation
        monkeypatch.setattr(radii, "radius_equation", lambda p, x: calls.append(x) or equation(p, x))
        with pytest.raises(ParameterDomainError, match="refused"):
            bl.solve_radius(bl.RadiusProblem(bl.Bernardi(gamma, m)))
        assert len(calls) < 3

    @pytest.mark.parametrize("name", BENCHMARK_GRIDS)
    def test_benchmark_grids_are_not_refused(self, name):
        for family in BENCHMARK_GRIDS[name]:
            family.require_root_below(radii._LADDER, bl.RadiusProblem(family).series_tail_eps)

    @pytest.mark.parametrize("gamma,m", CORNERS)
    def test_corner_refused_within_three_evaluations(self, gamma, m, monkeypatch):
        calls = []
        equation = radii.radius_equation
        monkeypatch.setattr(radii, "radius_equation", lambda p, x: calls.append(x) or equation(p, x))
        with pytest.raises(ParameterDomainError, match="refused"):
            bl.solve_radius(bl.RadiusProblem(bl.Bernardi(gamma, m)))
        assert len(calls) < 3
