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

Every root exceeds Bohr's 1/3, the identity's radius: with ``s = m+gamma``
the Bernardi equation exceeds ``(1-3x)/((1-x)s) >= 0`` on ``(0, 1/3]``, and
the Cesaro roots lie in (1/3, 0.59), tending to ``1/3 + 2/(3 beta)``.  So
the solver searches only the ladder ``0.25, 1 - 2**-k (k = 1..19), 1 - 1e-6``
for the adjacent pair where the sign changes: from 0.5 it walks upward
while the equation is positive, and otherwise takes ``(0.25, 0.5)`` after
checking that the equation is positive at 0.25.  ITP narrows that pair to
a bracket of width ``tol``, and ``iterations`` counts its steps; the
ladder search, a short regula-falsi polish that drives the residual to
rounding level and the two evaluations that confirm the reported bracket
are not counted.  Bernardi parameters whose root is certified to lie
above every ladder point the ``10**6``-term weight vector can reach
(``m + gamma`` below about 0.048) are refused before any evaluation.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Union

from .errors import BracketError, ContinuityError, ParameterDomainError
from .operators import Bernardi, CesaroBeta, Record

__all__ = [
    "RadiusResult",
    "CurveRow",
    "radius_equation",
    "solve_radius",
    "radius_curve",
]


class RadiusResult(Record):
    """A certified root: value, residual, sign-change bracket, ITP step count."""

    __slots__ = ("root", "residual", "bracket", "iterations")


class CurveRow(Record):
    __slots__ = ("parameter", "root", "residual")


def radius_equation(family: Union[CesaroBeta, Bernardi], x: float) -> float:
    """The family's radius equation, positive before the root, negative after."""
    if not 0.0 < x < 1.0:
        raise ParameterDomainError(f"x must lie in (0, 1), got {x}")
    return family.radius_equation(x)


# Candidate abscissas for the sign-change search: 0.25, below every root,
# then a geometric ladder toward 1 from 0.5.
_LADDER = (0.25,) + tuple(1.0 - 2.0**-k for k in range(1, 20)) + (1.0 - 1e-6,)

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

    From 0.5 it walks upward while the equation is positive, so it never
    evaluates above the first non-positive point, where the Bernardi series
    grows long; otherwise the pair is ``(0.25, 0.5)``.
    """
    f_half = eq(0.5)
    if f_half <= 0.0:
        f_floor = eq(0.25)
        if f_floor <= 0.0:
            raise BracketError("equation is not positive at x=0.25; check the family parameters")
        return 0.25, f_floor, 0.5, f_half
    f_lo = f_half
    for lo, hi in zip(_LADDER[1:], _LADDER[2:]):
        f_hi = eq(hi)
        if f_hi <= 0.0:
            return lo, f_lo, hi, f_hi
        f_lo = f_hi
    raise BracketError("no sign change found in (0, 1); the root should satisfy R < 1")


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


def _check_tol(tol: float) -> None:
    """A solver tolerance is finite and at least 1e-14; NaN fails the check."""
    if not 1e-14 <= tol < math.inf:
        raise ParameterDomainError(f"tol must be finite and >= 1e-14, got {tol}")


def solve_radius(family: Union[CesaroBeta, Bernardi], tol: float = 1e-12) -> RadiusResult:
    """Locate the positive root by ITP on a ladder bracket plus a short polish.

    ``family`` is a Cesaro or Bernardi family and ``tol`` a finite width of
    at least 1e-14.  The family first refuses parameters whose root is
    certified to lie above every ladder point it can evaluate.  The ladder
    search finds a sign-change bracket, and ITP (Oliveira and Takahashi, ACM
    TOMS 47(1), 2021) narrows it to width ``tol`` in at most
    ``ceil(log2(width / tol)) + n0`` steps, the ``iterations`` reported.
    Regula falsi then polishes the residual inside the final bracket until
    its step stalls on an endpoint; the root is the evaluated point with the
    smallest residual.  The reported bracket is ``root -+ tol/2`` when the
    equation's signs there confirm it, else the ITP bracket.
    """
    if not isinstance(family, (CesaroBeta, Bernardi)):
        raise ParameterDomainError(f"family must be a Cesaro or Bernardi kind, got {family!r}")
    _check_tol(tol)
    family.require_root_below(_LADDER)

    def eq(x: float) -> float:
        return radius_equation(family, x)

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

    ``entries`` yields ``(parameter, family)`` pairs in sweep order.
    Adjacent roots must not jump by more than 10x the grid spacing times a
    local slope estimate (floored at 1), which catches branch jumps.
    """
    rows: list = []
    for param, family in entries:
        result = solve_radius(family, tol)
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
