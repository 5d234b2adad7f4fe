"""Curve rows: warm-started solves against the mpmath oracle, against
``solve_radius`` at every tolerance, on awkward grids, and their cost in
equation evaluations.

Rows after the second are solved from a bracket around the root
extrapolated from the two rows before, so they agree with ``solve_radius``
to within ``tol``, not bit for bit.
"""

import math

import pytest

import bohrlab as bl
from bohrlab import radii
from bohrlab.errors import ContinuityError
from test_radii_oracle import BENCHMARK_GRIDS, bernardi_scaled, cesaro_scaled, grid, oracle_root


def parameter(family):
    return family.beta if isinstance(family, bl.CesaroBeta) else family.gamma


def entries(families):
    return [(parameter(family), family) for family in families]


def cesaro(*betas):
    return [bl.CesaroBeta(b) for b in betas]


def bernardi(m, *gammas):
    return [bl.Bernardi(g, m).family for g in gammas]


@pytest.fixture
def evaluations(monkeypatch):
    """The points every ``radii.radius_equation`` call evaluates, by family."""
    seen = {}
    equation = radii.radius_equation

    def counted(family, x):
        seen.setdefault(family, []).append(x)
        return equation(family, x)

    monkeypatch.setattr(radii, "radius_equation", counted)
    return seen


# Grids whose rows must agree with solve_radius: a Cesaro sweep, a Bernardi
# sweep down to gamma = 0.06 (root 0.99978), the benchmark's m = 3 grid in
# short, a descending Bernardi grid, and non-monotone and repeated grids.
AGREEMENT_GRIDS = {
    "cesaro": cesaro(*grid(0.05, 50.0, 120)),
    "bernardi-to-0.06": bernardi(0, *grid(1.0, 0.06, 30)),
    "bernardi-m3": bernardi(3, *grid(-2.85, 8.0, 60)),
    "bernardi-descending": bernardi(1, *grid(8.0, -0.85, 60)),
    "cesaro-1-50-1": cesaro(1.0, 50.0, 1.0),
    "cesaro-1-1-1": cesaro(1.0, 1.0, 1.0),
    "cesaro-back-and-forth": cesaro(1.0, 2.0, 3.0, 2.0, 1.0, 1.5, 1.0),
    # the line through the first two roots passes 1 at gamma = 0.06
    "bernardi-steep": bernardi(0, 0.3, 0.1, 0.06),
}


class TestOracle:
    @pytest.mark.parametrize("name", BENCHMARK_GRIDS)
    def test_every_50th_row_is_within_tol_of_the_oracle(self, name):
        families = BENCHMARK_GRIDS[name]
        rows = bl.radius_curve(entries(families))
        for family, row in list(zip(families, rows))[::50]:
            if isinstance(family, bl.CesaroBeta):
                root = oracle_root(cesaro_scaled(family.beta))
            else:
                root = oracle_root(bernardi_scaled(family.gamma, 0))
            assert abs(row.root - root) <= 1e-12, (family, row)


class TestAgreement:
    @pytest.mark.parametrize("tol", (1e-14, 1e-12, 1e-6, 1e-3, 0.5))
    @pytest.mark.parametrize("name", AGREEMENT_GRIDS)
    def test_rows_lie_within_tol_of_solve_radius(self, name, tol):
        families = AGREEMENT_GRIDS[name]
        rows = bl.radius_curve(entries(families), tol)
        assert [row.parameter for row in rows] == [parameter(f) for f in families]
        for family, row in zip(families, rows):
            assert abs(row.root - bl.solve_radius(family, tol).root) <= tol, (family, row)

    def test_first_two_rows_are_the_ladder_solve_bit_for_bit(self):
        families = AGREEMENT_GRIDS["bernardi-to-0.06"]
        rows = bl.radius_curve(entries(families))
        for family, row in zip(families[:2], rows):
            result = bl.solve_radius(family)
            assert (row.root, row.residual) == (result.root, result.residual)

    @pytest.mark.parametrize(
        "pairs",
        [
            [(1.0, bl.CesaroBeta(1.0)), (1.001, bl.CesaroBeta(1.001)),
             (1.002, bl.CesaroBeta(50.0))],
            [(1.0, bl.Bernardi(1.0)), (1.01, bl.Bernardi(1.01)), (1.02, bl.Bernardi(1.02)),
             (1.03, bl.Bernardi(8.0))],
            # the jump is raised before the later refused row is reached
            [(1.0, bl.Bernardi(1.0)), (1.01, bl.Bernardi(1.01)), (1.02, bl.Bernardi(1.02)),
             (1.03, bl.Bernardi(8.0)), (1.04, bl.Bernardi(1e-9))],
        ],
        ids=["cesaro", "bernardi", "bernardi-then-refused"],
    )
    def test_jumping_grid_raises_continuity_error(self, pairs):
        # the jumping family's root lies far from the line through the rows before
        with pytest.raises(ContinuityError, match="root jump"):
            bl.radius_curve(pairs)

    def test_warm_failure_falls_back_to_the_ladder_solve(self, monkeypatch):
        bracket, refused = radii._bracket, []

        def ladder_only(eq, start, step):
            if (start, step) != (0.5, 0.25):
                refused.append(start)
                raise bl.errors.BracketError("refused warm start")
            return bracket(eq, start, step)

        monkeypatch.setattr(radii, "_bracket", ladder_only)
        families = AGREEMENT_GRIDS["cesaro"][:10]
        rows = bl.radius_curve(entries(families))
        assert len(refused) == len(families) - 2
        for family, row in zip(families, rows):
            result = bl.solve_radius(family)
            assert (row.root, row.residual) == (result.root, result.residual)

    def test_truncation_on_the_warm_path_falls_back_to_the_ladder_solve(self, monkeypatch):
        # Rows at m + gamma = 0.049 (root 0.99997) then gamma = 1e4 send the
        # last guess where gamma = 1e4's cut needs more than 10**6 terms,
        # though its ladder solve stays below 0.5.  The same shape, cheaply:
        # Cesaro beta = 50 (root 0.347) refuses every point above 0.5.
        equation = radii.radius_equation
        refused = []

        def truncating(family, x):
            if family == bl.CesaroBeta(50.0) and x > 0.5:
                refused.append(x)
                raise bl.errors.TruncationError(f"no sum at {x}")
            return equation(family, x)

        monkeypatch.setattr(radii, "radius_equation", truncating)
        families = cesaro(1.0, 1.0, 1.0, 50.0)
        rows = bl.radius_curve(entries(families))
        assert refused
        result = bl.solve_radius(families[-1])
        assert (rows[-1].root, rows[-1].residual) == (result.root, result.residual)

    @pytest.mark.parametrize("tol", (math.nan, -1.0, 1e-15, math.inf))
    def test_tol_is_checked_before_any_row(self, tol):
        with pytest.raises(bl.errors.ParameterDomainError, match="tol must be finite and >= 1e-14"):
            bl.radius_curve([], tol)

    @pytest.mark.parametrize("gamma,m", [(1e-9, 0), (-0.999, 1)])
    def test_refused_corner_is_refused_on_the_warm_path_too(self, gamma, m, evaluations):
        families = bernardi(m, 1.0, 0.5, gamma)
        with pytest.raises(bl.errors.ParameterDomainError, match="refused"):
            bl.radius_curve(entries(families))
        assert families[-1] not in evaluations  # refused before any evaluation


class TestEvaluations:
    @pytest.mark.parametrize("name", ("cesaro", "bernardi-m1"))
    def test_long_grids_take_at_most_seven_per_row(self, name, evaluations):
        families = BENCHMARK_GRIDS[name]
        bl.radius_curve(entries(families))
        assert sum(map(len, evaluations.values())) <= 7 * len(families)

    @pytest.mark.parametrize(
        "families",
        [cesaro(*grid(0.5, 3.0, 26)), cesaro(*grid(0.05, 50.0, 15)),
         bernardi(1, *grid(-0.85, 8.0, 8))],
        ids=["readme-26", "cesaro-15", "bernardi-m1-8"],
    )
    def test_short_grids_take_no_more_than_the_ladder_solve(self, families, evaluations):
        bl.radius_curve(entries(families))
        warm = sum(map(len, evaluations.values()))
        evaluations.clear()
        for family in families:
            bl.solve_radius(family)
        assert warm <= sum(map(len, evaluations.values()))

    @pytest.mark.parametrize("tol", (1e-12, 0.5))
    @pytest.mark.parametrize("name", [*BENCHMARK_GRIDS, "bernardi-to-0.06", "bernardi-steep"])
    def test_no_evaluation_outside_the_ladder_search_range(self, name, tol, evaluations):
        # A warm row evaluates nothing below 0.25 and nothing above the last
        # point the ladder solve of the same family evaluates, where the
        # Bernardi series is longest.
        families = {**BENCHMARK_GRIDS, **AGREEMENT_GRIDS}[name]
        bl.radius_curve(entries(families), tol)
        warm = dict(evaluations)
        evaluations.clear()
        for family in warm:
            bl.solve_radius(family, tol)
        for family, points in warm.items():
            assert 0.25 <= min(points) and max(points) <= max(evaluations[family]), family
