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
from bohrlab.errors import BracketError, ParameterDomainError
from oracles import bernardi_root_reachable_reference

ORACLE_BRACKET = ("0.3", "0.999999999")

BETAS = (1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.7, 7.0, 10.0, 20.0, 45.0, 50.0,
         100.0, 300.0, 1e3, 1e4, 1e6)

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
    return bl.solve_radius(family)


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
        family = bl.Bernardi(gamma, m).family
        assert_bracket_contains(family, oracle_root(bernardi_scaled(gamma, m)))

    def test_gamma_006_root_is_near_one(self):
        assert abs(oracle_root(bernardi_scaled(0.06, 0)) - 0.99978) < 1e-5

    def test_large_beta_tends_to_bohr_third(self):
        third = mpmath.mpf(1) / 3
        roots = [solved(bl.CesaroBeta(b)).root for b in (10.0, 100.0, 1e3)]
        assert roots == sorted(roots, reverse=True)
        for beta, root in zip((10.0, 100.0, 1e3), roots):
            assert 0.0 < root - 1.0 / 3.0 <= 1.0 / beta
        assert 0 < oracle_root(cesaro_scaled(1e6)) - third <= 1e-6

    @pytest.mark.parametrize("beta", (1e4, 1e6))
    def test_large_beta_follows_the_asymptote(self, beta):
        # At unit scale (1-x)**(beta-1) vanishes and the equation becomes
        # 3 (1-x)/(beta-1) - 2/beta: R = 1/3 + 2/(3 beta).
        law = 1.0 / 3.0 + 2.0 / (3.0 * beta)
        assert abs(oracle_root(cesaro_scaled(beta)) - law) <= 1e-15
        assert abs(solved(bl.CesaroBeta(beta)).root - law) <= 1e-12

    @pytest.mark.parametrize("gamma,m", [gm for gm in BERNARDI if gm[0] + gm[1] < 1.0])
    def test_refusal_floor_holds_where_the_solver_works(self, gamma, m):
        # the bound behind the corner refusal: R >= 1 - exp(-1/(2(m+gamma)))
        assert solved(bl.Bernardi(gamma, m).family).root >= 1.0 - math.exp(-0.5 / (m + gamma))


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


def solved_family(gamma, m):
    """The family ``L_(m+gamma)`` the solver takes for ``Bernardi(gamma, m)``,
    as a test parameter named by that call."""
    return pytest.param(bl.Bernardi(gamma, m).family, id=f"Bernardi(gamma={float(gamma)!r}, m={m})")


# The radius-sweep benchmark grids, as the families ``curve`` solves.
BENCHMARK_GRIDS = {
    "cesaro": [bl.CesaroBeta(b) for b in grid(0.05, 50.0, 2000)],
    "bernardi-m0": [bl.Bernardi(g, 0) for g in grid(0.15, 8.0, 600)],
    "bernardi-m1": [bl.Bernardi(g, 1).family for g in grid(-0.85, 8.0, 600)],
    "bernardi-m3": [bl.Bernardi(g, 3).family for g in grid(-2.85, 8.0, 600)],
}

CONTRACT_FAMILIES = (
    bl.CesaroBeta(0.05), bl.CesaroBeta(1.0), bl.CesaroBeta(2.0), bl.CesaroBeta(50.0),
    bl.CesaroBeta(1e3), solved_family(0.15, 0), solved_family(1.0, 0),
    solved_family(8.0, 0), solved_family(-0.85, 1), solved_family(0.0, 1),
    solved_family(-2.85, 3), solved_family(8.0, 3),
)

# Equations with a root at c on which plain regula falsi keeps one end for
# many steps: a step, a saturated tanh, and one flat before c and steep after.
HARD_EQUATIONS = {
    "step": lambda c, x: 1.0 if x < c else -1.0,
    "tanh": lambda c, x: math.tanh(1e6 * (c - x)),
    "flat-then-steep": lambda c, x: -math.expm1(60.0 * (x - c)),
}


class TestSolverContract:
    @pytest.mark.parametrize("tol", (1e-14, 1e-12, 1e-8, 1e-3))
    @pytest.mark.parametrize("family", CONTRACT_FAMILIES, ids=str)
    def test_sign_change_bracket_of_width_tol(self, family, tol):
        result = bl.solve_radius(family, tol)
        lo, hi = result.bracket
        assert bl.radius_equation(family, lo) > 0.0 >= bl.radius_equation(family, hi)
        assert hi - lo <= tol
        assert lo <= result.root <= hi

    @pytest.mark.parametrize("tol", (1e-14, 1e-12, 1e-8, 1e-3))
    @pytest.mark.parametrize("family", CONTRACT_FAMILIES, ids=str)
    def test_iterations_within_the_step_bound(self, family, tol):
        lo, hi = linear_scan(lambda x: bl.radius_equation(family, x))
        bound = max(math.ceil(math.log2((hi - lo) / tol)), 0) + radii._N0
        assert bl.solve_radius(family, tol).iterations <= bound

    @pytest.mark.parametrize("tol", (1e-14, 1e-12, 1e-8, 1e-3))
    @pytest.mark.parametrize("c", (0.3, 0.5 + 1e-9, 0.7))
    @pytest.mark.parametrize("kind", HARD_EQUATIONS)
    def test_narrowing_keeps_the_step_bound_where_regula_falsi_stalls(self, kind, c, tol):
        eq = functools.partial(HARD_EQUATIONS[kind], c)
        lo, hi = 0.25, 0.75
        lo2, f_lo, hi2, f_hi, steps = radii._narrow(eq, lo, eq(lo), hi, eq(hi), tol)
        assert (f_lo, f_hi) == (eq(lo2), eq(hi2))
        assert f_lo > 0.0 >= f_hi
        assert lo <= lo2 < hi2 <= hi and hi2 - lo2 <= tol
        assert steps <= math.ceil(math.log2((hi - lo) / tol)) + radii._N0

    @pytest.mark.parametrize(
        "family",
        [bl.CesaroBeta(b) for b in (100.0, 300.0, 2000.0)]
        + [solved_family(1.0, m) for m in (50, 300, 600)],
        ids=str,
    )
    def test_unit_scale_lets_interpolation_work(self, family):
        # The raw equations span (1-x)**-beta or x**m over the ladder pair,
        # where ITP ran its full 42-43 step bound.
        assert bl.solve_radius(family).iterations <= 12

    def test_ladder_starts_at_the_root_floor(self):
        assert min(radii._LADDER) == 0.25

    def test_equation_positive_at_the_ladder_floor(self):
        # The ladder's first point lies below every root, which exceeds 1/3.
        betas = [10.0 ** (k / 4.0) for k in range(-48, 33)]  # 1e-12 .. 1e8
        for beta in betas:
            assert bl.radius_equation(bl.CesaroBeta(beta), 0.25) > 0.0, beta
        sums = [0.05] + [10.0 ** (k / 4.0) for k in range(-4, 53)]  # m + gamma, 0.05 .. 1e13
        for m in (0, 1, 3, 100, 1000):
            for s in sums:
                family = bl.Bernardi(s - m, m).family
                assert bl.radius_equation(family, 0.25) > 0.0, family

    def test_root_below_half_takes_the_floor_pair(self):
        seen = []
        family = bl.CesaroBeta(3.0)
        eq = lambda x: seen.append(x) or bl.radius_equation(family, x)  # noqa: E731
        lo, _, hi, _ = radii._bracket(eq, 0.5, 0.25)
        assert (lo, hi) == (0.25, 0.5) and seen == [0.5, 0.25]

    def test_root_above_half_evaluates_nothing_below_half(self, monkeypatch):
        calls = []
        equation = radii.radius_equation
        monkeypatch.setattr(radii, "radius_equation", lambda p, x: calls.append(x) or equation(p, x))
        bl.solve_radius(bl.Libera())
        assert calls[0] == 0.5 and min(calls) >= 0.5

    def test_nonpositive_floor_is_a_bracket_error(self):
        with pytest.raises(BracketError, match="x=0.25"):
            radii._bracket(lambda x: -1.0, 0.5, 0.25)

    @pytest.mark.parametrize("name", BENCHMARK_GRIDS)
    def test_ladder_search_matches_the_linear_scan(self, name):
        for family in BENCHMARK_GRIDS[name]:
            seen = []
            eq = lambda x: seen.append(x) or bl.radius_equation(family, x)  # noqa: E731
            lo, _, hi, _ = radii._bracket(eq, 0.5, 0.25)
            searched = seen[:]
            seen.clear()
            assert (lo, hi) == linear_scan(eq), family
            # the same points in the same order, plus the floor's check
            assert searched == seen + [0.25] * (lo == 0.25), family

    def test_ladder_search_stays_below_the_first_nonpositive_point(self):
        for family in (bl.Bernardi(0.06, 0), bl.Bernardi(0.15, 0), bl.CesaroBeta(45.0)):
            seen = []
            eq = lambda x: seen.append(x) or bl.radius_equation(family, x)  # noqa: E731
            _, _, hi, _ = radii._bracket(eq, 0.5, 0.25)
            assert max(seen) == hi

    @pytest.mark.parametrize("gamma,m", [(0.04, 0), (-0.96, 1), (-2.96, 3)])
    def test_root_beyond_the_reachable_ladder_refused(self, gamma, m, monkeypatch):
        # m + gamma = 0.04: the root floor 1 - exp(-12.5) lies above every
        # ladder point the 10**6-term tail can reach
        calls = []
        equation = radii.radius_equation
        monkeypatch.setattr(radii, "radius_equation", lambda p, x: calls.append(x) or equation(p, x))
        with pytest.raises(ParameterDomainError, match="refused"):
            bl.solve_radius(bl.Bernardi(gamma, m).family)
        assert len(calls) < 3

    @pytest.mark.parametrize("name", BENCHMARK_GRIDS)
    def test_benchmark_grids_are_not_refused(self, name):
        for family in BENCHMARK_GRIDS[name]:
            family.require_root_below(radii._LADDER)

    @pytest.mark.parametrize("m", (0, 1, 3))
    def test_first_reachable_point_decides_as_every_point_did(self, m):
        # m + gamma in [0.03, 0.07] holds the switch from refused to solved
        decisions = set()
        for k in range(2001):
            family = bl.Bernardi(0.03 + 0.04 * k / 2000 - m, m).family
            reachable = bernardi_root_reachable_reference(family, radii._LADDER)
            try:
                family.require_root_below(radii._LADDER)
            except ParameterDomainError:
                assert not reachable, family
            else:
                assert reachable, family
            decisions.add(reachable)
        assert decisions == {False, True}

    @pytest.mark.parametrize("gamma,m", CORNERS)
    def test_corner_refused_within_three_evaluations(self, gamma, m, monkeypatch):
        calls = []
        equation = radii.radius_equation
        monkeypatch.setattr(radii, "radius_equation", lambda p, x: calls.append(x) or equation(p, x))
        with pytest.raises(ParameterDomainError, match="refused"):
            bl.solve_radius(bl.Bernardi(gamma, m).family)
        assert len(calls) < 3
