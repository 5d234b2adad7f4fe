"""Radius equations for the operator families and a certified scalar solver.

For each family the absolute series stays below the closed-form sup bound
exactly up to a critical radius, the positive root of a transcendental
equation:

* Cesaro family:   ``3 A(beta, x) - 2 A(beta + 1, x) = 0`` where
  ``A(b, x) = integral_0^x (1 - t)**(-b) dt``; at beta = 1 this reduces to
  ``3 log(1/(1-x)) - 2x/(1-x) = 0`` (root 0.5335...).
* Bernardi family: ``x**m/(m+gamma) - 2 sum_{n>m} x**n/(n+gamma) = 0``;
  for gamma = 1, m = 0 this is ``(1/x)(3x + 2 log(1-x)) = 0``
  (root 0.5828...), and gamma = 0, m = 1 gives the same root.

Both equations are positive for small x > 0 and negative past the root,
so a geometric scan of (0, 1) followed by bisection certifies a bracket;
a short regula-falsi polish then drives the residual to rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import BracketError, ContinuityError, ParameterDomainError
from .operators import Bernardi, CesaroBeta

__all__ = [
    "RadiusFamily",
    "RadiusProblem",
    "RadiusResult",
    "CurveRow",
    "radius_equation",
    "solve_radius",
    "radius_curve",
]

RadiusFamily = Union[CesaroBeta, Bernardi]


@dataclass(frozen=True)
class RadiusProblem:
    """A radius-equation instance for one operator family."""

    family: RadiusFamily
    series_tail_eps: float = 1e-14

    def __post_init__(self) -> None:
        if not isinstance(self.family, (CesaroBeta, Bernardi)):
            raise ParameterDomainError(
                f"family must be a Cesaro or Bernardi kind, got {self.family!r}"
            )
        if self.series_tail_eps <= 0.0:
            raise ParameterDomainError("series_tail_eps must be positive")


@dataclass(frozen=True)
class RadiusResult:
    """A certified root: value, residual, sign-change bracket, iteration count."""

    root: float
    residual: float
    bracket: tuple
    iterations: int


@dataclass(frozen=True)
class CurveRow:
    parameter: float
    root: float
    residual: float


def radius_equation(problem: RadiusProblem, x: float) -> float:
    """The family's radius equation, positive before the root, negative after."""
    if not 0.0 < x < 1.0:
        raise ParameterDomainError(f"x must lie in (0, 1), got {x}")
    return problem.family.radius_equation(x, problem.series_tail_eps)


# Candidate abscissas for the sign-change scan: geometric ladders toward both
# ends of (0, 1).
_SCAN_LO = 1e-6
_SCAN_HI = 1.0 - 1e-6


def _scan_points() -> list:
    pts = {_SCAN_LO, _SCAN_HI}
    for k in range(1, 21):
        for x in (2.0**-k, 1.0 - 2.0**-k):
            if _SCAN_LO < x < _SCAN_HI:
                pts.add(x)
    return sorted(pts)


def solve_radius(problem: RadiusProblem, tol: float = 1e-12) -> RadiusResult:
    """Locate the positive root by bracketed bisection plus a secant polish.

    The scan walks a geometric ladder across (0, 1); the equation must be
    positive at the left end (structural property of both families) and a
    sign change must appear before 1.  Bisection narrows the bracket to
    width ``tol``; regula falsi then polishes the root inside the bracket.
    """
    if tol < 1e-14:
        raise ParameterDomainError(f"tol must be >= 1e-14, got {tol}")

    def eq(x: float) -> float:
        return radius_equation(problem, x)

    points = _scan_points()
    f_prev = eq(points[0])
    if f_prev <= 0.0:
        raise BracketError(
            f"equation is not positive at x={points[0]}; check the family parameters"
        )
    lo, hi, f_lo, f_hi = points[0], None, f_prev, None
    for x in points[1:]:
        f_x = eq(x)
        if f_x <= 0.0:
            hi, f_hi = x, f_x
            break
        lo, f_lo = x, f_x
    if hi is None:
        raise BracketError("no sign change found in (0, 1); the root should satisfy R < 1")

    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = eq(mid)
        iterations += 1
        if f_mid > 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    bracket = (lo, hi)

    # Regula-falsi polish inside the final bracket.
    best_x, best_f = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    a, fa, b, fb = lo, f_lo, hi, f_hi
    for _ in range(12):
        if fa == fb:
            break
        x_new = b - fb * (b - a) / (fb - fa)
        if not a <= x_new <= b:
            break
        f_new = eq(x_new)
        iterations += 1
        if abs(f_new) < abs(best_f):
            best_x, best_f = x_new, f_new
        if f_new == 0.0:
            break
        if f_new > 0.0:
            a, fa = x_new, f_new
        else:
            b, fb = x_new, f_new

    root = best_x
    if not 0.0 < root < 1.0:
        raise BracketError(f"solver produced an out-of-range root {root}")
    return RadiusResult(root=root, residual=best_f, bracket=bracket, iterations=iterations)


def radius_curve(
    entries: Iterable[tuple], tol: float = 1e-12
) -> list:
    """Solve a parameter sweep and sanity-check root continuity.

    ``entries`` yields ``(parameter, RadiusProblem)`` pairs in sweep order.
    Adjacent roots must not jump by more than 10x the grid spacing times a
    local slope estimate (floored at 1), which catches branch jumps.
    """
    rows: list = []
    problems: Sequence[tuple] = list(entries)
    for param, problem in problems:
        result = solve_radius(problem, tol)
        rows.append(CurveRow(parameter=float(param), root=result.root, residual=result.residual))
    for i in range(1, len(rows)):
        dp = abs(rows[i].parameter - rows[i - 1].parameter)
        if dp == 0.0:
            continue
        slope = 1.0
        if i >= 2:
            dp_prev = abs(rows[i - 1].parameter - rows[i - 2].parameter)
            if dp_prev > 0.0:
                slope = max(slope, abs(rows[i - 1].root - rows[i - 2].root) / dp_prev)
        if abs(rows[i].root - rows[i - 1].root) >= 10.0 * dp * slope:
            raise ContinuityError(
                f"root jump between parameters {rows[i-1].parameter} and "
                f"{rows[i].parameter}: {rows[i-1].root} -> {rows[i].root}"
            )
    return rows
