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
the Cesaro roots lie in (1/3, 0.59), tending to ``1/3 + 2/(3 beta)``.  So
``solve_radius`` searches only the ladder ``0.25, 1 - 2**-k (k = 1..19),
1 - 1e-6`` for the adjacent pair where the sign changes: from 0.5 it walks
upward while the equation is positive, and otherwise takes ``(0.25, 0.5)``
after checking that the equation is positive at 0.25.  One loop,
``_narrow``, takes that pair to a bracket of width ``tol``, and
``iterations`` counts its steps; the ladder search, a short regula-falsi
polish that drives the residual to rounding level and the two evaluations
that confirm the reported bracket are not counted.  Bernardi parameters
whose root is certified to lie above every ladder point the ``10**6``-term
weight vector can reach (``m + gamma`` below about 0.048) are refused
before any evaluation.

``radius_curve`` solves its first two rows so.  Each later row brackets the
root extrapolated from the two rows before it, and the same loop narrows
that to width ``tol`` before the same polish: about 6 evaluations, not 14,
on a long grid.  The row is certified by a sign change of width ``tol``
too, and agrees with ``solve_radius`` to within ``tol``, not bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Callable, Iterable, Union

from .errors import BracketError, ContinuityError, ParameterDomainError, TruncationError
from .operators import Bernardi, CesaroBeta, Record

__all__ = [
    "RadiusResult",
    "CurveRow",
    "radius_equation",
    "solve_radius",
    "radius_curve",
]


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


def _warm_root(eq: Callable[[float], float], guess: float, half: float, tol: float):
    """``_polish`` of the ``_narrow`` bracket of a sign change near ``guess``,
    or None if widening reaches a ladder end before the sign changes.

    The ends ``guess -+ half``, the lower first, widen outward in steps
    doubling from ``2 half``, upward never past the next ladder point.
    """
    lo = hi = max(guess - half, _LADDER[0])
    f_lo = f_hi = eq(lo)
    step = 2.0 * half
    while f_lo <= 0.0:  # the root lies at or below lo
        if lo == _LADDER[0]:
            return None
        hi, f_hi, lo, step = lo, f_lo, max(lo - step, _LADDER[0]), 2.0 * step
        f_lo = eq(lo)
    while f_hi > 0.0:  # the root lies above hi
        rung = next((x for x in _LADDER if x > hi), None)
        if rung is None:
            return None
        lo, f_lo, hi, step = hi, f_hi, min(hi + step, rung), 2.0 * step
        f_hi = eq(hi)
    return _polish(eq, *_narrow(eq, lo, f_lo, hi, f_hi, tol)[:4])


def _check_tol(tol: float) -> None:
    """A solver tolerance is finite and at least 1e-14; NaN fails the check."""
    if not 1e-14 <= tol < math.inf:
        raise ParameterDomainError(f"tol must be finite and >= 1e-14, got {tol}")


def solve_radius(family: Union[CesaroBeta, Bernardi], tol: float = 1e-12) -> RadiusResult:
    """Locate the positive root by ``_narrow`` on a ladder bracket plus a
    short polish.

    ``family`` is a Cesaro or Bernardi family and ``tol`` a finite width of
    at least 1e-14.  ``iterations`` counts the narrowing steps, at most
    ``ceil(log2(width / tol)) + n0``.  The root is the polish's point with
    the smallest residual.  The reported bracket is ``root -+ tol/2`` when
    the equation's signs there confirm it, else the narrowed bracket.
    """
    if not isinstance(family, (CesaroBeta, Bernardi)):
        raise ParameterDomainError(f"family must be a Cesaro or Bernardi kind, got {family!r}")
    _check_tol(tol)
    family.require_root_below(_LADDER)
    eq = functools.partial(radius_equation, family)
    ladder_lo, f_lo, ladder_hi, f_hi = _ladder_bracket(eq)
    lo, f_lo, hi, f_hi, iterations = _narrow(eq, ladder_lo, f_lo, ladder_hi, f_hi, tol)
    bracket = (lo, hi)
    best_x, best_f = _polish(eq, lo, f_lo, hi, f_hi)

    # Narrowing often ends with an endpoint a few ulps from the root, where
    # the sign of the computed equation is rounding noise; half a tolerance
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

    ``entries`` yields ``(parameter, family)`` pairs in sweep order.  A warm
    row's bracket starts at ``guess -+`` twice the last guess's miss (1e-3 for
    the third row, at least ``tol/2``); where the warm path fails or meets
    ``TruncationError``, ``solve_radius`` solves the row.  Adjacent roots must
    not jump by more than 10x the grid spacing times a local slope estimate
    (floored at 1), which catches branch jumps.
    """
    rows: list = []
    for param, family in entries:
        solved, param = None, float(param)
        if len(rows) > 1 and isinstance(family, (CesaroBeta, Bernardi)):
            family.require_root_below(_LADDER)  # tol passed the first row's check
            before, last = rows[-2], rows[-1]
            # inf for a repeated parameter: the guess is then the last root
            slope = (last.root - before.root) / (last.parameter - before.parameter or math.inf)
            guess = last.root + slope * (param - last.parameter)
            # no higher than the ladder point at or above the last root
            guess = min(guess, next(x for x in _LADDER if x >= last.root))
            with contextlib.suppress(TruncationError):
                solved = _warm_root(functools.partial(radius_equation, family), guess, half, tol)
        if solved is None:
            result = solve_radius(family, tol)
            solved = result.root, result.residual
        half = max(2.0 * abs(solved[0] - guess), 0.5 * tol) if len(rows) > 1 else 1e-3
        rows.append(CurveRow(param, *solved))
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
