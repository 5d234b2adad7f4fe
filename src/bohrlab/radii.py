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

Neither factor moves the root, and both keep interpolation useful at every
``beta`` and ``m``; ``residual`` reports the unit-scale value.

Every root exceeds Bohr's 1/3, the identity's radius: with ``s = m+gamma``
the Bernardi equation exceeds ``(1-3x)/((1-x)s) >= 0`` on ``(0, 1/3]``, and
the Cesaro roots lie in (1/3, 0.59), tending to ``1/3 + 2/(3 beta)``.  So one
search, ``_bracket``, finds a sign change on the ladder ``0.25, 1 - 2**-k
(k = 1..19), 1 - 1e-6``: from a start it widens down while the equation is
not positive, no lower than 0.25, then up while it is positive, never past
the next ladder point.  One loop, ``_narrow``, takes the pair to a bracket
of width ``tol``, and a short regula-falsi polish drives the residual to
rounding level.  Bernardi parameters whose root is certified to lie above
every ladder point the ``10**6``-term weight vector can reach (``m + gamma``
below about 0.048) are refused before any evaluation.

``solve_radius`` starts the search at 0.5, which walks the ladder up from
0.5 or checks 0.25 below it.  ``radius_curve`` does so for its first two
rows, and starts each later row around the root extrapolated from the two
rows before it: about 6 evaluations, not 14, on a long grid, and a root
within ``tol`` of ``solve_radius``'s, not bit for bit.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Union

from . import _EXPORTS
from .errors import BracketError, ContinuityError, ParameterDomainError, TruncationError
from .operators import Bernardi, CesaroBeta, Record

__all__ = _EXPORTS["radii"]


class RadiusResult(Record):
    """A certified root: value, residual, sign-change bracket, narrowing steps."""

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

# Narrowing steps allowed over bisection's count.
_N0 = 4
# Regula-falsi polish steps inside the final bracket at most; the polish
# stops earlier once a step no longer lands strictly inside the bracket.
_POLISH_STEPS = 8


def _bracket(eq: Callable[[float], float], start: float, step: float) -> tuple:
    """Ends ``(lo, f_lo, hi, f_hi)`` of a sign change ``f(lo) > 0 >= f(hi)``
    found by widening outward from ``start``, no lower than 0.25.

    The ends widen down in steps doubling from ``step`` while the equation is
    not positive at ``lo``, then up while it is positive at ``hi``, never past
    the next ladder point, so nothing is evaluated above the first
    non-positive ladder point, where the Bernardi series grows long.  From
    ``(0.5, 0.25)`` the points are the ladder's from 0.5 upward, or 0.5 then
    0.25, and the pair is the one a linear scan from the left finds.
    """
    lo = hi = max(start, _LADDER[0])
    f_lo = f_hi = eq(lo)
    while f_lo <= 0.0:  # the root lies at or below lo
        if lo == _LADDER[0]:
            raise BracketError("equation is not positive at x=0.25; check the family parameters")
        hi, f_hi, lo, step = lo, f_lo, max(lo - step, _LADDER[0]), 2.0 * step
        f_lo = eq(lo)
    while f_hi > 0.0:  # the root lies above hi
        rung = next((x for x in _LADDER if x > hi), None)
        if rung is None:
            raise BracketError("no sign change found in (0, 1); the root should satisfy R < 1")
        lo, f_lo, hi, step = hi, f_hi, min(hi + step, rung), 2.0 * step
        f_hi = eq(hi)
    return lo, f_lo, hi, f_hi


def _narrow(eq: Callable[[float], float], lo: float, f_lo: float, hi: float, f_hi: float,
            tol: float) -> tuple:
    """Steps from ``f(lo) > 0 >= f(hi)`` until ``hi - lo <= tol``:
    ``(lo, f_lo, hi, f_hi, steps)`` with the same sign pattern, within
    ``ceil(log2(width / tol)) + n0`` steps.

    Each step takes the Illinois regula-falsi point (Dowell and Jarratt, BIT
    11, 1971), which halves the weight of an end kept twice in a row, held
    ``tol/2`` inside the bracket so a step beside the root closes it.  ITP's
    projection (Oliveira and Takahashi, ACM TOMS 47(1), 2021) then clamps it
    around the midpoint to keep the bracket on bisection's schedule plus
    ``n0 - 1`` steps; the last step absorbs the midpoints' rounding.
    """
    half_tol, w_lo, w_hi, side, steps = 0.5 * tol, f_lo, f_hi, 0, 0
    n_max = math.ceil(math.log2((hi - lo) / tol)) + _N0
    while hi - lo > tol:
        mid, width = 0.5 * (lo + hi), hi - lo
        reach = max(half_tol * 2.0 ** (n_max - 1 - steps) - 0.5 * width, 0.0)
        x = min(max(hi - w_hi * width / (w_hi - w_lo), lo + half_tol), hi - half_tol)
        x = min(max(x, mid - reach), mid + reach)
        f_x = eq(x)
        steps += 1
        if f_x > 0.0:
            lo, f_lo, w_lo, w_hi, side = x, f_x, f_x, w_hi * (0.5 if side > 0 else 1.0), 1
        else:
            hi, f_hi, w_hi, w_lo, side = x, f_x, f_x, w_lo * (0.5 if side < 0 else 1.0), -1
    return lo, f_lo, hi, f_hi, steps


def _polish(eq: Callable[[float], float], lo: float, f_lo: float, hi: float, f_hi: float):
    """Regula-falsi steps inside ``f(lo) > 0 >= f(hi)`` until one no longer lands
    strictly inside: ``(x, f(x))`` at the evaluated point, ends included, with
    the smallest residual."""
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
    return best_x, best_f


def _check_tol(tol: float) -> None:
    """A solver tolerance is finite and at least 1e-14; NaN fails the check."""
    if not 1e-14 <= tol < math.inf:
        raise ParameterDomainError(f"tol must be finite and >= 1e-14, got {tol}")


def _equation(family: Union[CesaroBeta, Bernardi]) -> Callable[[float], float]:
    """The radius equation of a Cesaro or Bernardi ``family`` whose root the ladder reaches."""
    if not isinstance(family, (CesaroBeta, Bernardi)):
        raise ParameterDomainError(f"family must be a Cesaro or Bernardi kind, got {family!r}")
    family.require_root_below(_LADDER)
    return functools.partial(radius_equation, family)


def _solve(eq: Callable[[float], float], tol: float, start: float = 0.5, step: float = 0.25):
    """The sign change ``_bracket`` finds from ``start``, narrowed to ``tol`` and polished."""
    found = _bracket(eq, start, step)
    narrowed = _narrow(eq, *found, tol)
    return found, narrowed, _polish(eq, *narrowed[:4])


def solve_radius(family: Union[CesaroBeta, Bernardi], tol: float = 1e-12) -> RadiusResult:
    """Locate the positive root by ``_narrow`` on the ladder pair ``_bracket``
    finds from 0.5, plus a short polish.

    ``family`` is a Cesaro or Bernardi family and ``tol`` a finite width of
    at least 1e-14.  ``iterations`` counts the narrowing steps, at most
    ``ceil(log2(width / tol)) + n0``.  The root is the polish's point with
    the smallest residual.  The reported bracket is ``root -+ tol/2`` when
    the equation's signs there confirm it, else the narrowed bracket.
    """
    _check_tol(tol)
    eq = _equation(family)
    (ladder_lo, _, ladder_hi, _), (lo, _, hi, _, iterations), (best_x, best_f) = _solve(eq, tol)
    bracket = (lo, hi)

    # Narrowing often ends with an endpoint a few ulps from the root, where
    # the sign of the computed equation is rounding noise; half a tolerance
    # away it is not.
    half = 0.5 * tol - math.ulp(best_x)
    lo, hi = max(best_x - half, ladder_lo), min(best_x + half, ladder_hi)
    if eq(lo) > 0.0 >= eq(hi):
        bracket = (lo, hi)
    return RadiusResult(root=best_x, residual=best_f, bracket=bracket, iterations=iterations)


def radius_curve(
    entries: Iterable[tuple], tol: float = 1e-12
) -> list:
    """Solve a parameter sweep and sanity-check root continuity.

    ``entries`` yields ``(parameter, family)`` pairs in sweep order.  A warm
    row's search starts at ``guess - half`` with step ``2 half``, ``half``
    twice the last guess's miss (1e-3 for the third row, at least ``tol/2``);
    where that search reaches a ladder end or meets ``TruncationError``, it
    starts again as ``solve_radius``'s does.  Adjacent roots must not jump by
    more than 10x the grid spacing times a local slope estimate (floored at
    1), which catches branch jumps as soon as they occur.
    """
    _check_tol(tol)
    rows: list = []
    for param, family in entries:
        param, eq, slope, solved = float(param), _equation(family), 1.0, None
        if len(rows) > 1:
            before, last = rows[-2], rows[-1]
            # inf for a repeated parameter: the guess is then the last root
            slope = (last.root - before.root) / (last.parameter - before.parameter or math.inf)
            guess = last.root + slope * (param - last.parameter)
            # no higher than the ladder point at or above the last root
            guess = min(guess, next(x for x in _LADDER if x >= last.root))
            try:
                solved = _solve(eq, tol, guess - half, 2.0 * half)
            except (BracketError, TruncationError):
                pass  # solved again from 0.5 below
        root, residual = (solved or _solve(eq, tol))[2]
        half = max(2.0 * abs(root - guess), 0.5 * tol) if len(rows) > 1 else 1e-3
        if rows:
            dp = abs(param - rows[-1].parameter)
            if dp and abs(root - rows[-1].root) >= 10.0 * dp * max(1.0, abs(slope)):
                raise ContinuityError(
                    f"root jump between parameters {rows[-1].parameter} and "
                    f"{param}: {rows[-1].root} -> {root}"
                )
        rows.append(CurveRow(param, root, residual))
    return rows
