"""Radius equations for the operator families and a certified scalar solver.

For each family the absolute series stays below the closed-form sup bound
exactly up to a critical radius, the positive root of a transcendental
equation:

* Cesaro family:   ``3 A(beta, x) - 2 A(beta + 1, x) = 0`` where
  ``A(b, x) = integral_0^x (1 - t)**(-b) dt``, evaluated times
  ``(1-x)**beta``; at beta = 1 this is ``-3 (1-x) log(1-x) - 2x = 0``
  (root 0.5335...).
* Bernardi family: ``x**m/(m+gamma) - 2 sum_{n>m} x**n/(n+gamma) = 0``,
  the identity ``w_m - 2 sum_{k>m} w_k`` in the family's majorant weights
  at ``x``, evaluated over ``x**m`` from the weights' own scan with no
  separate tail loop; for gamma = 1, m = 0 this is
  ``(1/x)(3x + 2 log(1-x)) = 0`` (root 0.5828...), and gamma = 0, m = 1
  gives the same root.

Neither factor moves the root, and both keep ITP's interpolation useful at
every ``beta`` and ``m``; ``residual`` reports the unit-scale value.

Both equations are positive for small x > 0 and negative past the root.
The solver checks the sign at x = 1e-6, then searches a geometric ladder
of (0, 1) from 0.5 for the adjacent pair where the sign changes: upward
while the equation is positive, by galloping bisection of the ladder
indices below 0.5 otherwise.  ITP narrows that pair to a bracket of width
``tol``, and ``iterations`` counts its steps; the ladder search, a short
regula-falsi polish that drives the residual to rounding level and the
two evaluations that confirm the reported bracket are not counted.
Bernardi parameters whose root is certified to lie above every ladder
point the ``10**6``-term weight vector can reach (``m + gamma`` below about 0.048 at
the default tail cut) are refused before any evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

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
    """A certified root: value, residual, sign-change bracket, ITP step count."""

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


# Candidate abscissas for the sign-change search: geometric ladders toward
# both ends of (0, 1).  Roots lie in about [0.33, 0.98], so the search starts
# at 0.5.
_SCAN_LO = 1e-6
_SCAN_HI = 1.0 - 1e-6
_LADDER = tuple(
    sorted(
        {_SCAN_LO, _SCAN_HI}
        | {x for k in range(1, 21) for x in (2.0**-k, 1.0 - 2.0**-k) if _SCAN_LO < x < _SCAN_HI}
    )
)
_LADDER_START = _LADDER.index(0.5)

# ITP parameters: kappa1 = 0.2 / (initial width), kappa2 = 2, and n0 extra
# steps over bisection's count (n0 = 1 falls back to bisection on the
# Bernardi m = 3 and large-beta Cesaro grids).
_ITP_K1 = 0.2
_ITP_N0 = 4
# Regula-falsi polish steps inside the final bracket at most; the polish
# stops earlier once a step no longer lands strictly inside the bracket.
_POLISH_STEPS = 8


def _ladder_bracket(eq: Callable[[float], float]) -> tuple:
    """Adjacent ladder points ``(lo, f_lo, hi, f_hi)`` with ``hi`` the first
    ladder point where the equation is not positive, as a linear scan from
    the left finds them.

    From 0.5 it walks upward while the equation is positive; otherwise it
    searches the indices below 0.5, galloping down from 0.5 and then
    bisecting.  Both assume the sign changes once along the ladder, and
    neither evaluates above the first non-positive point, where the
    Bernardi series grows long.
    """
    f_first = eq(_LADDER[0])
    if f_first <= 0.0:
        raise BracketError(
            f"equation is not positive at x={_LADDER[0]}; check the family parameters"
        )
    i = _LADDER_START
    f_i = eq(_LADDER[i])
    if f_i > 0.0:
        for j in range(i + 1, len(_LADDER)):
            f_j = eq(_LADDER[j])
            if f_j <= 0.0:
                return _LADDER[j - 1], f_i, _LADDER[j], f_j
            f_i = f_j
        raise BracketError("no sign change found in (0, 1); the root should satisfy R < 1")
    lo, f_lo, hi, f_hi, step = 0, f_first, i, f_i, 1
    while hi - lo > 1:
        j = max(hi - step, (lo + hi) // 2)
        f_j = eq(_LADDER[j])
        if f_j > 0.0:
            lo, f_lo = j, f_j
        else:
            hi, f_hi = j, f_j
        step *= 2
    return _LADDER[lo], f_lo, _LADDER[hi], f_hi


def _itp(eq: Callable[[float], float], lo: float, f_lo: float, hi: float, f_hi: float,
         tol: float) -> tuple:
    """ITP steps from ``f(lo) > 0 >= f(hi)`` until ``hi - lo <= tol``:
    ``(lo, f_lo, hi, f_hi, steps)`` with the same sign pattern.

    Each step moves the regula-falsi point toward the midpoint by
    ``max(kappa1 * width**2, tol/2)`` and projects it into the interval
    around the midpoint that keeps the bracket on bisection's schedule plus
    n0 steps.  The ``tol/2`` floor is what ends the run once the
    interpolation has hit the root: a bare ``kappa1 * width**2`` is below
    an ulp by then and would evaluate the same endpoint again.
    """
    half_tol, k1 = 0.5 * tol, _ITP_K1 / (hi - lo)
    n_max = math.ceil(math.log2((hi - lo) / tol)) + _ITP_N0
    steps = 0
    while hi - lo > tol:
        mid, width = 0.5 * (lo + hi), hi - lo
        reach = max(half_tol * 2.0 ** (n_max - steps) - 0.5 * width, 0.0)
        x_f = (f_hi * lo - f_lo * hi) / (f_hi - f_lo)
        sigma = math.copysign(1.0, mid - x_f)
        delta = max(k1 * width * width, half_tol)
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        x = x_t if abs(x_t - mid) <= reach else mid - sigma * reach
        f_x = eq(x)
        steps += 1
        if f_x > 0.0:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    return lo, f_lo, hi, f_hi, steps


def solve_radius(problem: RadiusProblem, tol: float = 1e-12) -> RadiusResult:
    """Locate the positive root by ITP on a ladder bracket plus a short polish.

    The family first refuses parameters whose root is certified to lie
    above every ladder point it can evaluate.  The ladder search finds a sign-change bracket, and
    ITP (Oliveira and Takahashi, ACM TOMS 47(1), 2021) narrows it to width
    ``tol`` in at most ``ceil(log2(width / tol)) + n0`` steps, the
    ``iterations`` reported.  Regula falsi then polishes the residual inside
    the final bracket until its step stalls on an endpoint; the root is the
    evaluated point with the smallest residual.  The reported bracket is
    ``root -+ tol/2`` when the equation's signs there confirm it, else the
    ITP bracket.
    """
    if tol < 1e-14:
        raise ParameterDomainError(f"tol must be >= 1e-14, got {tol}")
    problem.family.require_root_below(_LADDER, problem.series_tail_eps)

    def eq(x: float) -> float:
        return radius_equation(problem, x)

    ladder_lo, f_lo, ladder_hi, f_hi = _ladder_bracket(eq)
    lo, f_lo, hi, f_hi, iterations = _itp(eq, ladder_lo, f_lo, ladder_hi, f_hi, tol)
    bracket = (lo, hi)

    best_x, best_f = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    for _ in range(_POLISH_STEPS):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            break
        f_x = eq(x)
        if abs(f_x) < abs(best_f):
            best_x, best_f = x, f_x
        if f_x > 0.0:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x

    # ITP often ends with an endpoint a few ulps from the root, where the
    # sign of the computed equation is rounding noise; half a tolerance
    # away it is not.
    half = 0.5 * tol - math.ulp(best_x)
    lo, hi = max(best_x - half, ladder_lo), min(best_x + half, ladder_hi)
    if eq(lo) > 0.0 >= eq(hi):
        bracket = (lo, hi)

    if not 0.0 < best_x < 1.0:
        raise BracketError(f"solver produced an out-of-range root {best_x}")
    return RadiusResult(root=best_x, residual=best_f, bracket=bracket, iterations=iterations)


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
